package netem

import (
	"testing"

	"prudentia/internal/sim"
)

// FuzzBottleneckQueue drives the drop-tail queue with an arbitrary
// operation sequence — enqueues on both service slots, engine steps, rate
// flaps up and down, and drains — and asserts the structural invariants
// after every operation. The fuzzer's job is to find an interleaving
// (e.g. a rate flap landing mid-serialization, a burst across a drain
// boundary) that breaks occupancy accounting, FIFO order, or byte
// conservation. scripts/ci.sh runs this as a 10s smoke gate.
func FuzzBottleneckQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 0, 3, 2, 1, 4, 2, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{1, 3, 1, 4, 1, 3, 1, 4, 2, 2, 2, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const rate = 8_000_000
		const capacity = 16
		eng := sim.NewEngine()
		b := NewBottleneck(eng, rate, capacity, sim.Millisecond)

		var admitted, started []int64
		var arrived, dropped int64 // bytes offered and dropped, summed here
		check := func(stage string) {
			if b.qlen > capacity {
				t.Fatalf("%s: occupancy %d exceeds capacity %d", stage, b.qlen, capacity)
			}
			sum := 0
			for s := 0; s < MaxServices; s++ {
				if b.perService[s] < 0 {
					t.Fatalf("%s: negative per-service depth", stage)
				}
				sum += b.perService[s]
			}
			if sum != b.qlen {
				t.Fatalf("%s: per-service depths sum to %d, total is %d", stage, sum, b.qlen)
			}
		}
		b.EnqueueHook = func(_ sim.Time, p *Packet) { admitted = append(admitted, p.Seq); check("enqueue") }
		b.DequeueHook = func(_ sim.Time, p *Packet) { started = append(started, p.Seq); check("dequeue") }
		b.DropHook = func(_ sim.Time, p *Packet) { dropped += int64(p.Size) }

		var seq int64
		for _, op := range ops {
			switch op % 6 {
			case 0, 1:
				p := &Packet{Seq: seq, Size: 64 + 11*int(op), Service: int(op % 2)}
				seq++
				arrived += int64(p.Size)
				b.Enqueue(eng.Now(), p)
			case 2:
				eng.Step()
			case 3:
				b.SetRate(rate / int64(2+op%4))
			case 4:
				b.SetRate(rate * int64(2+op%4))
			case 5:
				for i := 0; i < 8; i++ {
					eng.Step()
				}
			}
			check("op")
		}
		for eng.Step() {
		}
		check("drain")

		if len(started) != len(admitted) {
			t.Fatalf("admitted %d packets, %d started serialization after drain", len(admitted), len(started))
		}
		for i := range admitted {
			if started[i] != admitted[i] {
				t.Fatalf("FIFO broken at %d: started seq %d, admitted seq %d", i, started[i], admitted[i])
			}
		}
		var delivered int64
		for s := 0; s < MaxServices; s++ {
			st := b.Stats(s)
			delivered += st.DeliveredBytes
			if st.DroppedPackets < 0 || st.DroppedPackets > st.ArrivedPackets {
				t.Fatalf("slot %d dropped %d of %d arrivals", s, st.DroppedPackets, st.ArrivedPackets)
			}
		}
		if arrived != dropped+delivered {
			t.Fatalf("conservation broken after drain: arrived %d != dropped %d + delivered %d",
				arrived, dropped, delivered)
		}
	})
}
