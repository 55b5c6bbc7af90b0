package chaos

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

func TestNilAndZeroConfigsAreInert(t *testing.T) {
	var c *Config
	if c.Enabled() {
		t.Fatal("nil config reports Enabled")
	}
	if got := c.TrialFault(7); got != FaultNone {
		t.Fatalf("nil config TrialFault = %v", got)
	}
	// Arm on a nil config must be a no-op, not a panic.
	eng := sim.NewEngine()
	tb := netem.NewTestbed(eng, netem.HighlyConstrained(), sim.NewRNG(1))
	c.Arm(eng, tb, sim.NewRNG(1))

	z := &Config{}
	if z.Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	if got := z.TrialFault(7); got != FaultNone {
		t.Fatalf("zero config TrialFault = %v", got)
	}
	def := Default()
	if !def.Enabled() {
		t.Fatal("Default config must be enabled")
	}
}

// TestTrialFaultDeterministicRates checks that fault decisions are pure
// functions of the seed and that observed rates track the configured
// probabilities (with the documented panic > error > corrupt priority).
func TestTrialFaultDeterministicRates(t *testing.T) {
	c := &Config{PanicRate: 0.10, ErrorRate: 0.10, CorruptRate: 0.10}
	const n = 20000
	counts := map[Fault]int{}
	for seed := uint64(0); seed < n; seed++ {
		f := c.TrialFault(seed)
		if f != c.TrialFault(seed) {
			t.Fatalf("seed %d not deterministic", seed)
		}
		counts[f]++
	}
	// Marginal rates under the priority chain: panic 0.10, error
	// 0.10×0.90 = 0.09, corrupt 0.10×0.90×0.90 = 0.081. ±0.01 is ~5σ.
	check := func(f Fault, want float64) {
		got := float64(counts[f]) / n
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("%v rate = %.4f, want ~%.3f", f, got, want)
		}
	}
	check(FaultPanic, 0.10)
	check(FaultError, 0.09)
	check(FaultCorrupt, 0.081)
}

func TestCorruptionCoversAllKinds(t *testing.T) {
	c := &Config{CorruptRate: 1}
	seen := map[CorruptKind]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		k := c.Corruption(seed)
		if strings.HasPrefix(k.String(), "corrupt(") {
			t.Fatalf("Corruption(%d) = %v out of range", seed, k)
		}
		seen[k] = true
	}
	if len(seen) != int(numCorruptKinds) {
		t.Fatalf("only %d of %d corruption kinds drawn", len(seen), numCorruptKinds)
	}
}

func TestFaultStrings(t *testing.T) {
	want := map[Fault]string{
		FaultNone: "none", FaultPanic: "panic", FaultError: "error", FaultCorrupt: "corrupt",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), s)
		}
	}
	p := InjectedPanic{Seed: 9, At: sim.Second}
	if !strings.Contains(p.String(), "injected panic") {
		t.Errorf("InjectedPanic.String() = %q", p.String())
	}
}

// TestArmFlapsBlackholeDeterministically drives a constant upstream
// packet stream through a testbed with link flaps armed: drops must
// occur, land on ChaosDrops (not the noise-discard counter), and replay
// exactly under the same chaos stream seed.
func TestArmFlapsBlackholeDeterministically(t *testing.T) {
	run := func() int64 {
		eng := sim.NewEngine()
		cfg := netem.HighlyConstrained()
		cfg.NoJitter = true
		tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
		fid := tb.RegisterFlow(0, nil, nil)
		c := &Config{FlapMeanGap: 2 * sim.Second, FlapMeanLen: 500 * sim.Millisecond}
		c.Arm(eng, tb, sim.NewRNG(StreamSeed(9)))
		var send sim.Event
		send = func(now sim.Time) {
			tb.SendData(now, &netem.Packet{FlowID: fid, Service: 0, Size: 1500})
			if now < 30*sim.Second {
				eng.After(5*sim.Millisecond, send)
			}
		}
		eng.Schedule(0, send)
		eng.RunUntil(31 * sim.Second)
		if tb.ExternalDrops != 0 {
			t.Fatalf("flap drops leaked into ExternalDrops: %d", tb.ExternalDrops)
		}
		return tb.ChaosDrops
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("no packets blackholed by armed flaps")
	}
	if a != b {
		t.Fatalf("flap process not deterministic: %d vs %d drops", a, b)
	}
}

// TestScheduleIndependence proves the property the parallel matrix
// engine depends on: fault decisions are pure functions of the trial
// seed, so a Config shared by many workers yields the same plan no
// matter which goroutine asks, in which order, or how many times.
// Running this under -race (scripts/ci.sh) also certifies the shared
// Config is read-only during concurrent queries.
func TestScheduleIndependence(t *testing.T) {
	c := &Config{PanicRate: 0.15, ErrorRate: 0.15, CorruptRate: 0.2}
	const n = 4096

	// Serial reference plan, queried in ascending seed order.
	faults := make([]Fault, n)
	kinds := make([]CorruptKind, n)
	streams := make([]uint64, n)
	for seed := uint64(0); seed < n; seed++ {
		faults[seed] = c.TrialFault(seed)
		kinds[seed] = c.Corruption(seed)
		streams[seed] = StreamSeed(seed)
	}

	// Eight workers query the same Config concurrently, each walking the
	// seed space in a different stride order and re-querying seeds other
	// workers also touch.
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(stride uint64) {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				seed := (i*stride + stride) % n
				if got := c.TrialFault(seed); got != faults[seed] {
					errc <- fmt.Sprintf("seed %d: TrialFault %v, serial %v", seed, got, faults[seed])
					return
				}
				if got := c.Corruption(seed); got != kinds[seed] {
					errc <- fmt.Sprintf("seed %d: Corruption %v, serial %v", seed, got, kinds[seed])
					return
				}
				if got := StreamSeed(seed); got != streams[seed] {
					errc <- fmt.Sprintf("seed %d: StreamSeed %d, serial %d", seed, got, streams[seed])
					return
				}
			}
		}(uint64(w)*2 + 1)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error("schedule-dependent chaos decision: " + msg)
	}
}

// TestBrownoutBudget: a brownout consumes exactly Trials units, only
// for matching names, and then lets the service recover.
func TestBrownoutBudget(t *testing.T) {
	b := &Brownout{Service: "S", Trials: 3}
	c := &Config{Brownouts: []*Brownout{b}}
	if !c.Enabled() {
		t.Fatal("brownout plan not Enabled")
	}
	if got := c.BrownoutFor("other"); got != "" {
		t.Fatalf("non-matching name consumed brownout: %q", got)
	}
	for i := 0; i < 3; i++ {
		if got := c.BrownoutFor("other", "S"); got != "S" {
			t.Fatalf("attempt %d: got %q", i, got)
		}
	}
	if got := c.BrownoutFor("S"); got != "" {
		t.Fatalf("budget overrun: %q", got)
	}
	if taken := b.taken.Load(); taken != 3 {
		t.Fatalf("spent %d units of a 3-trial budget", taken)
	}
	var nilCfg *Config
	if got := nilCfg.BrownoutFor("S"); got != "" {
		t.Fatalf("nil config: %q", got)
	}
}

// TestBrownoutConcurrentBudget: concurrent consumers never overrun the
// budget.
func TestBrownoutConcurrentBudget(t *testing.T) {
	b := &Brownout{Service: "S", Trials: 100}
	c := &Config{Brownouts: []*Brownout{b}}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if c.BrownoutFor("S") != "" {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() != 100 {
		t.Fatalf("consumed %d of 100 budget units", hits.Load())
	}
}
