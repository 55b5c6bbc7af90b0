package netem

import (
	"testing"
	"testing/quick"

	"prudentia/internal/sim"
)

// TestBottleneckInvariants property-checks the drop-tail queue under
// randomized traffic: random packet sizes, arrival patterns, service mix,
// and mid-run rate changes, seeded from the paper's two table settings
// (§3.1: 8 and 50 Mbps). Three invariants must hold on every run:
//
//  1. byte conservation — every arrived byte is eventually accounted as
//     dropped or delivered, with nothing queued once the engine drains;
//  2. FIFO — packets start serialization in exactly their admission
//     order (single shared queue, no reordering);
//  3. occupancy — the instantaneous queue depth never exceeds the
//     power-of-two capacity from §3.1 footnote 6, and the per-service
//     counts always sum to the total depth.
func TestBottleneckInvariants(t *testing.T) {
	table := []Config{HighlyConstrained(), ModeratelyConstrained()}
	dropRuns := 0
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := table[rng.Intn(len(table))]
		cap := cfg.queueCapacity()
		if cap&(cap-1) != 0 {
			t.Errorf("seed %d: capacity %d is not a power of two", seed, cap)
			return false
		}

		eng := sim.NewEngine()
		b := NewBottleneck(eng, cfg.RateBps, cap, cfg.RTT*4/10)

		var admitted, started []int64 // seqs in admission / serialization order
		violations := 0
		occCheck := func() {
			if b.qlen > cap {
				violations++
			}
			sum := 0
			for s := 0; s < MaxServices; s++ {
				sum += b.perService[s]
			}
			if sum != b.qlen {
				violations++
			}
		}
		b.EnqueueHook = func(now sim.Time, p *Packet) {
			admitted = append(admitted, p.Seq)
			occCheck()
		}
		b.DequeueHook = func(now sim.Time, p *Packet) {
			started = append(started, p.Seq)
			occCheck()
		}
		var dropped int64 // bytes, summed here: the bottleneck counts drops in packets
		b.DropHook = func(now sim.Time, p *Packet) {
			dropped += int64(p.Size)
			occCheck()
		}

		// Random traffic: bursts around the capacity so both the admit and
		// the drop branch are exercised, with occasional rate changes.
		n := 100 + rng.Intn(400)
		pkts := make([]Packet, n)
		var arrived int64
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			pkts[i] = Packet{
				Seq:     int64(i),
				Size:    64 + rng.Intn(1437),
				Service: rng.Intn(MaxServices),
			}
			arrived += int64(pkts[i].Size)
			p := &pkts[i]
			eng.Schedule(at, func(now sim.Time) { b.Enqueue(now, p) })
			if rng.Float64() < 0.05 {
				newRate := cfg.RateBps / 2
				if rng.Float64() < 0.5 {
					newRate = cfg.RateBps * 2
				}
				eng.Schedule(at, func(sim.Time) { b.SetRate(newRate) })
			}
			// Mostly back-to-back arrivals (bursts), sometimes a gap that
			// lets the queue drain. At 8 Mbps the bursts outrun the link
			// and overflow the queue.
			if rng.Float64() < 0.02 {
				at += rng.Duration(20 * sim.Millisecond)
			} else {
				at += rng.Duration(200 * sim.Microsecond)
			}
		}
		for eng.Step() {
		}

		if violations > 0 {
			t.Errorf("seed %d: %d occupancy violations", seed, violations)
			return false
		}
		// FIFO: serialization starts in admission order, every admitted
		// packet eventually started (queue fully drained).
		if len(started) != len(admitted) {
			t.Errorf("seed %d: admitted %d packets but %d started serialization", seed, len(admitted), len(started))
			return false
		}
		for i := range admitted {
			if started[i] != admitted[i] {
				t.Errorf("seed %d: dequeue %d = seq %d, admission order says %d", seed, i, started[i], admitted[i])
				return false
			}
		}
		if b.qlen != 0 {
			t.Errorf("seed %d: %d packets still queued after drain", seed, b.qlen)
			return false
		}
		// Byte conservation over both service slots: every byte offered
		// was dropped or delivered.
		var delivered int64
		for s := 0; s < MaxServices; s++ {
			delivered += b.Stats(s).DeliveredBytes
		}
		if arrived != dropped+delivered {
			t.Errorf("seed %d: conservation broken: arrived %d != dropped %d + delivered %d",
				seed, arrived, dropped, delivered)
			return false
		}
		if arrived == 0 {
			t.Errorf("seed %d: degenerate run, nothing arrived", seed)
			return false
		}
		if dropped > 0 {
			dropRuns++
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if dropRuns == 0 {
		t.Fatal("no run overflowed the queue, so conservation never covered a drop")
	}
}

// TestBottleneckConservationMidFlight checks conservation while packets
// are still in flight: at every lifecycle hook, the bytes offered so far
// must equal dropped + delivered + queued + in-serializer bytes,
// reconstructed from the hook stream itself.
func TestBottleneckConservationMidFlight(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		b := NewBottleneck(eng, 8_000_000, 32, sim.Millisecond)

		var arrived, enqBytes, deqBytes, dropped int64
		bad := 0
		balance := func() {
			var delivered int64
			for s := 0; s < MaxServices; s++ {
				delivered += b.Stats(s).DeliveredBytes
			}
			queued := enqBytes - deqBytes
			inSerializer := deqBytes - delivered
			if arrived != dropped+delivered+queued+inSerializer || queued < 0 || inSerializer < 0 {
				bad++
			}
		}
		b.EnqueueHook = func(_ sim.Time, p *Packet) { enqBytes += int64(p.Size); balance() }
		b.DequeueHook = func(_ sim.Time, p *Packet) { deqBytes += int64(p.Size); balance() }
		b.DropHook = func(_ sim.Time, p *Packet) { dropped += int64(p.Size); balance() }

		n := 50 + rng.Intn(200)
		pkts := make([]Packet, n)
		at := sim.Time(0)
		for i := range pkts {
			pkts[i] = Packet{Seq: int64(i), Size: 200 + rng.Intn(1301)}
			p := &pkts[i]
			eng.Schedule(at, func(now sim.Time) { arrived += int64(p.Size); b.Enqueue(now, p) })
			at += rng.Duration(2 * sim.Millisecond)
		}
		for eng.Step() {
		}
		balance()
		if bad > 0 {
			t.Errorf("seed %d: %d balance violations", seed, bad)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
