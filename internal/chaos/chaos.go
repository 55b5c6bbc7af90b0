// Package chaos provides a deterministic, seed-driven fault plan for
// stress-testing the watchdog, in the spirit of Netflix's Chaos
// Engineering principles: the only way to trust a measurement service
// that must run unattended for years is to inject faults continuously
// and verify it degrades gracefully. Every fault decision derives from
// the trial seed via SplitMix64-style hashing, so a chaos-enabled run
// replays byte-for-byte given the same seed — faults are part of the
// experiment, not nondeterminism.
//
// Two fault families are modelled:
//
//   - In-simulation faults, armed on the testbed per trial: mid-trial
//     link flaps (upstream blackhole episodes), bandwidth-fluctuation
//     episodes (the bottleneck rate sags and recovers), and client
//     stalls (one experiment slot stops returning ACKs for a window —
//     the browser/Selenium hang analogue).
//   - Trial-level faults, decided per seed before or after the
//     simulation: injected panics mid-run, injected trial errors, and
//     result corruption (NaN/negative/out-of-range metrics).
//
// The core scheduler supplies the matching defenses: recover(),
// bounded retry with backoff, pair quarantine, and a validity gate.
package chaos

import (
	"fmt"
	"sync/atomic"

	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// Fault is a trial-level fault class.
type Fault int

const (
	// FaultNone leaves the trial unmolested.
	FaultNone Fault = iota
	// FaultPanic panics mid-simulation (a crashed trial process).
	FaultPanic
	// FaultError makes the trial return an injected error.
	FaultError
	// FaultCorrupt corrupts the trial's result metrics.
	FaultCorrupt
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultError:
		return "error"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// CorruptKind selects how a FaultCorrupt trial's result is mangled.
type CorruptKind int

const (
	// CorruptNaNThroughput sets a slot's throughput to NaN.
	CorruptNaNThroughput CorruptKind = iota
	// CorruptNegativeThroughput makes a slot's throughput negative.
	CorruptNegativeThroughput
	// CorruptUtilization pushes utilization far above 1.
	CorruptUtilization
	// CorruptShare breaks the share/throughput consistency invariant.
	CorruptShare
	numCorruptKinds
)

func (k CorruptKind) String() string {
	switch k {
	case CorruptNaNThroughput:
		return "nan-throughput"
	case CorruptNegativeThroughput:
		return "negative-throughput"
	case CorruptUtilization:
		return "utilization-overflow"
	case CorruptShare:
		return "share-mismatch"
	}
	return fmt.Sprintf("corrupt(%d)", int(k))
}

// Config is a fault plan. Zero values disable each fault class, so the
// zero Config is a no-op; a nil *Config is likewise safe everywhere.
type Config struct {
	// FlapMeanGap/FlapMeanLen drive memoryless link-flap episodes during
	// which every upstream packet is blackholed (both must be positive
	// to enable flaps).
	FlapMeanGap sim.Time
	FlapMeanLen sim.Time

	// FluctMeanGap/FluctMeanLen drive bandwidth-fluctuation episodes:
	// the bottleneck rate drops to a uniform fraction in
	// [FluctMinFrac, 1) of its configured value, then recovers.
	FluctMeanGap sim.Time
	FluctMeanLen sim.Time
	// FluctMinFrac is the deepest sag; zero means the default 0.2.
	FluctMinFrac float64

	// StallMeanGap/StallMeanLen drive client-stall episodes: a uniformly
	// chosen experiment slot stops returning ACKs until the episode
	// ends (held ACKs are released, not lost).
	StallMeanGap sim.Time
	StallMeanLen sim.Time

	// PanicRate, ErrorRate, and CorruptRate are per-trial probabilities
	// of the corresponding trial-level fault, decided by hashing the
	// trial seed. Priority on collision: panic > error > corrupt.
	PanicRate   float64
	ErrorRate   float64
	CorruptRate float64

	// Brownouts degrade named services to persistent trial failures for
	// a bounded number of trials each (the "backend went dark for an
	// afternoon" scenario that circuit breakers exist for). Unlike the
	// per-seed faults above, a brownout is stateful — it burns one unit
	// of budget per affected trial in execution order — so which trials
	// it hits depends on scheduling and it is not part of the
	// byte-identical replay contract. Use it in acceptance tests and
	// soak runs, not golden traces.
	Brownouts []*Brownout

	// Partitions sever the fleet coordinator from named workers for a
	// bounded number of assignments each (the "switch between racks
	// lost its mind" scenario that lease re-dispatch exists for). Like
	// brownouts they are budgeted and stateful, so they are excluded
	// from the byte-identical replay contract — though the watchdog's
	// *report* stays byte-identical regardless, because a partitioned
	// worker's pairs are deterministically re-executed by survivors.
	Partitions []*WorkerPartition
}

// Brownout is a bounded service outage: every trial involving Service
// fails with a typed brownout error until Trials attempts have been
// consumed, after which the service behaves normally again.
type Brownout struct {
	// Service is the exact service name affected.
	Service string
	// Trials is the outage budget: how many trials fail before recovery.
	Trials int64

	taken atomic.Int64
}

// Remaining reports how many failing trials the brownout has left.
func (b *Brownout) Remaining() int64 {
	left := b.Trials - b.taken.Load()
	if left < 0 {
		return 0
	}
	return left
}

// take consumes one unit of outage budget, reporting false once spent.
func (b *Brownout) take() bool {
	for {
		t := b.taken.Load()
		if t >= b.Trials {
			return false
		}
		if b.taken.CompareAndSwap(t, t+1) {
			return true
		}
	}
}

// WorkerPartition is a bounded coordinator↔worker network partition:
// assignments to Worker are severed (connection dropped at the
// coordinator, pair re-queued) until Times units of budget have been
// consumed, after which the worker may rejoin and serve normally.
type WorkerPartition struct {
	// Worker is the exact worker name affected; "" matches any worker.
	Worker string
	// Times is the partition budget: how many assignments are severed.
	Times int64
	// Rate gates each eligible assignment by hashing its decision seed:
	// the partition fires when unit(seed) < Rate. Zero or negative
	// means every eligible assignment fires until the budget is spent.
	Rate float64

	taken atomic.Int64
}

// Remaining reports how much partition budget is left.
func (p *WorkerPartition) Remaining() int64 {
	left := p.Times - p.taken.Load()
	if left < 0 {
		return 0
	}
	return left
}

// take consumes one unit of partition budget, reporting false once spent.
func (p *WorkerPartition) take() bool {
	for {
		t := p.taken.Load()
		if t >= p.Times {
			return false
		}
		if p.taken.CompareAndSwap(t, t+1) {
			return true
		}
	}
}

// PartitionFor checks one fleet assignment against the plan's active
// partitions: worker is the assignee's name and seed the assignment's
// deterministic decision seed (for Rate gating). On a match with
// remaining budget it consumes one unit and reports true — the
// coordinator then severs the worker instead of assigning. Safe on a
// nil Config.
func (c *Config) PartitionFor(worker string, seed uint64) bool {
	if c == nil || len(c.Partitions) == 0 {
		return false
	}
	for _, p := range c.Partitions {
		if p == nil || (p.Worker != "" && p.Worker != worker) {
			continue
		}
		if p.Rate > 0 && unit(seed, saltPartition) >= p.Rate {
			continue
		}
		if p.take() {
			return true
		}
	}
	return false
}

// BrownoutFor checks the given service names against the plan's active
// brownouts. On a match with remaining budget it consumes one failing
// trial and returns the affected service's name; otherwise it returns
// "". Safe on a nil Config.
func (c *Config) BrownoutFor(names ...string) string {
	if c == nil || len(c.Brownouts) == 0 {
		return ""
	}
	for _, b := range c.Brownouts {
		if b == nil {
			continue
		}
		for _, n := range names {
			if n == b.Service && b.take() {
				return b.Service
			}
		}
	}
	return ""
}

// Default returns a representative all-classes plan used by demos and
// smoke tests: every fault family enabled at rates high enough to fire
// within a quick trial but low enough that matrices still complete.
func Default() Config {
	return Config{
		FlapMeanGap:  20 * sim.Second,
		FlapMeanLen:  200 * sim.Millisecond,
		FluctMeanGap: 15 * sim.Second,
		FluctMeanLen: 2 * sim.Second,
		FluctMinFrac: 0.3,
		StallMeanGap: 20 * sim.Second,
		StallMeanLen: 500 * sim.Millisecond,
		PanicRate:    0.05,
		ErrorRate:    0.05,
		CorruptRate:  0.05,
	}
}

// Enabled reports whether any fault class is active.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.simEnabled() || c.PanicRate > 0 || c.ErrorRate > 0 || c.CorruptRate > 0 ||
		len(c.Brownouts) > 0 || len(c.Partitions) > 0
}

func (c *Config) simEnabled() bool {
	return (c.FlapMeanGap > 0 && c.FlapMeanLen > 0) ||
		(c.FluctMeanGap > 0 && c.FluctMeanLen > 0) ||
		(c.StallMeanGap > 0 && c.StallMeanLen > 0)
}

// Distinct salts keep each per-seed decision an independent hash stream.
const (
	saltPanic   = 0xc5a7_0001_9e37_79b9
	saltError   = 0xc5a7_0002_9e37_79b9
	saltCorrupt = 0xc5a7_0003_9e37_79b9
	saltKind    = 0xc5a7_0004_9e37_79b9
	saltStream  = 0xc5a7_0005_9e37_79b9

	saltPartition = 0xc5a7_0006_9e37_79b9

	saltDiskWrite = 0xc5a7_0007_9e37_79b9
	saltDiskStall = 0xc5a7_0008_9e37_79b9
	saltDiskTear  = 0xc5a7_0009_9e37_79b9
)

// mix is the SplitMix64 finalizer: a bijective avalanche hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps (seed, salt) to a uniform value in [0, 1).
func unit(seed, salt uint64) float64 {
	return float64(mix(seed^salt)>>11) / (1 << 53)
}

// TrialFault decides the trial-level fault for a seed. The decision is
// a pure function of (Config, seed).
func (c *Config) TrialFault(seed uint64) Fault {
	if c == nil {
		return FaultNone
	}
	if c.PanicRate > 0 && unit(seed, saltPanic) < c.PanicRate {
		return FaultPanic
	}
	if c.ErrorRate > 0 && unit(seed, saltError) < c.ErrorRate {
		return FaultError
	}
	if c.CorruptRate > 0 && unit(seed, saltCorrupt) < c.CorruptRate {
		return FaultCorrupt
	}
	return FaultNone
}

// Corruption picks the corruption kind for a FaultCorrupt seed.
func (c *Config) Corruption(seed uint64) CorruptKind {
	return CorruptKind(mix(seed^saltKind) % uint64(numCorruptKinds))
}

// StreamSeed derives the RNG seed for a trial's in-simulation chaos
// processes. It is independent of the trial's own RNG stream so that
// enabling chaos does not perturb the base experiment's randomness.
func StreamSeed(seed uint64) uint64 { return mix(seed ^ saltStream) }

// InjectedPanic is the typed value thrown by FaultPanic trials, so the
// scheduler's recover() can label the failure.
type InjectedPanic struct {
	Seed uint64
	At   sim.Time
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("chaos: injected panic at %v (seed %d)", p.At, p.Seed)
}

// Arm schedules the in-simulation fault processes on a trial's engine
// and testbed. rng must be dedicated to chaos (see StreamSeed); each
// fault family splits its own child stream so disabling one family does
// not shift another's draws. The processes are open-ended: a flap, sag
// or stall whose turn comes after the trial's engine stops (where the
// measurement window closes, see core.RunTrial) simply never happens
// and is not counted.
func (c *Config) Arm(eng *sim.Engine, tb *netem.Testbed, rng *sim.RNG) {
	if c == nil || !c.simEnabled() {
		return
	}
	if c.FlapMeanGap > 0 && c.FlapMeanLen > 0 {
		r := rng.Split()
		var next sim.Event
		next = func(now sim.Time) {
			tb.ChaosFlaps++
			tb.SetLinkDown(now + r.Exp(c.FlapMeanLen))
			eng.After(r.Exp(c.FlapMeanGap), next)
		}
		eng.After(r.Exp(c.FlapMeanGap), next)
	}
	if c.FluctMeanGap > 0 && c.FluctMeanLen > 0 {
		r := rng.Split()
		orig := tb.Bneck.RateBps
		minFrac := c.FluctMinFrac
		if minFrac <= 0 || minFrac >= 1 {
			minFrac = 0.2
		}
		var next sim.Event
		next = func(now sim.Time) {
			tb.ChaosSags++
			frac := minFrac + (1-minFrac)*r.Float64()
			tb.Bneck.SetRate(int64(float64(orig) * frac))
			eng.After(r.Exp(c.FluctMeanLen), func(sim.Time) { tb.Bneck.SetRate(orig) })
			eng.After(r.Exp(c.FluctMeanGap), next)
		}
		eng.After(r.Exp(c.FluctMeanGap), next)
	}
	if c.StallMeanGap > 0 && c.StallMeanLen > 0 {
		r := rng.Split()
		var next sim.Event
		next = func(now sim.Time) {
			tb.ChaosStalls++
			slot := r.Intn(netem.MaxServices)
			tb.StallService(slot, now+r.Exp(c.StallMeanLen))
			eng.After(r.Exp(c.StallMeanGap), next)
		}
		eng.After(r.Exp(c.StallMeanGap), next)
	}
}
