package transport

import (
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// rcvModel is the receiver's bookkeeping as it stood before rcvSet: the
// next expected seq and a map of the seqs received above it. It defines
// "same" for the receive-set tests.
type rcvModel struct {
	expected int64
	ooo      map[int64]bool
}

func (m *rcvModel) receive(seq int64) {
	switch {
	case seq == m.expected:
		m.expected++
		for len(m.ooo) > 0 && m.ooo[m.expected] {
			delete(m.ooo, m.expected)
			m.expected++
		}
	case seq > m.expected:
		m.ooo[seq] = true
	}
}

// receiver is a flow that only receives: it is closed, so the ACKs it
// sends are dropped at its own sender, and every data packet is handed
// straight to onDataAtClient.
type receiver struct {
	tb *netem.Testbed
	f  *Flow
	p  netem.Packet
}

func newReceiver() *receiver {
	tb := netem.NewTestbed(sim.NewEngine(), netem.HighlyConstrained(), sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{}), Options{})
	f.Close()
	return &receiver{tb: tb, f: f}
}

// receive delivers seq to the flow's receiver and runs its ACK home.
func (r *receiver) receive(seq int64) {
	r.p = netem.Packet{FlowID: r.f.id, Seq: seq, Size: 1500}
	r.f.onDataAtClient(r.tb.Eng.Now(), &r.p)
	for r.tb.Eng.Step() {
	}
}

// agree fails unless the flow's receiver state equals the model's: the
// same next expected seq, the same number of members, and every model
// member present in the ring (with equal counts, no extra ones).
func (r *receiver) agree(t *testing.T, m *rcvModel, step int) {
	t.Helper()
	f := r.f
	if f.rcvExpected != m.expected {
		t.Fatalf("step %d: rcvExpected %d, map model %d", step, f.rcvExpected, m.expected)
	}
	if f.rcvOOO.n != len(m.ooo) {
		t.Fatalf("step %d: receive set holds %d seqs, map model %d", step, f.rcvOOO.n, len(m.ooo))
	}
	for seq := range m.ooo {
		if seq-f.rcvExpected >= int64(len(f.rcvOOO.flags)) || !f.rcvOOO.flags[seq&f.rcvOOO.mask] {
			t.Fatalf("step %d: seq %d missing from the receive set (window [%d, %d))",
				step, seq, f.rcvExpected, f.rcvExpected+int64(len(f.rcvOOO.flags)))
		}
	}
}

// checkRcvSet delivers seqs to a receiver and to the map model and
// compares them after every packet.
func checkRcvSet(t *testing.T, seqs []int64) {
	r := newReceiver()
	m := &rcvModel{ooo: map[int64]bool{}}
	for i, seq := range seqs {
		r.receive(seq)
		m.receive(seq)
		r.agree(t, m, i)
	}
}

// TestRcvSetMatchesMap drives the receive set with the arrival orders a
// lossy path produces — runs with holes that a retransmission fills
// later, reordered bursts, duplicates of delivered data, and gaps wider
// than the ring's current size — against the map model.
func TestRcvSetMatchesMap(t *testing.T) {
	rng := sim.NewRNG(5)
	var seqs []int64
	var next int64
	for len(seqs) < 20000 {
		// A window of w packets of which some are lost and sent again
		// after the rest, in a shuffled order.
		w := 1 + rng.Intn(600)
		var lost []int64
		for s := next; s < next+int64(w); s++ {
			if rng.Intn(8) == 0 {
				lost = append(lost, s)
				continue
			}
			seqs = append(seqs, s)
			if rng.Intn(20) == 0 {
				seqs = append(seqs, s-int64(rng.Intn(40))) // duplicate
			}
		}
		for i := len(lost) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			lost[i], lost[j] = lost[j], lost[i]
		}
		seqs = append(seqs, lost...)
		next += int64(w)
	}
	for i := range seqs {
		seqs[i] = max(seqs[i], 0)
	}
	checkRcvSet(t, seqs)
	// One gap far wider than the ring: the set grows several doublings
	// in one add and keeps the members it had.
	checkRcvSet(t, []int64{3, 5, 9000, 2, 1, 0, 4, 6, 100, 8999, 7})
}

// FuzzRcvSet decodes arbitrary bytes into an arrival order and holds the
// receive set to the map model after every packet. Each byte's top two
// bits pick the next arrival relative to the next expected seq e: e
// itself, a reorder up to 64 ahead, a duplicate up to 64 behind, or a
// gap of 64 to 6175 ahead (wider than the ring's first sizes).
func FuzzRcvSet(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0x41, 0x42, 0x43, 0, 0, 0, 0})
	f.Add([]byte{0xc5, 0xff, 0x40, 0x7f, 0x81, 0, 0x3f, 0xc0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newReceiver()
		m := &rcvModel{ooo: map[int64]bool{}}
		for i, b := range ops {
			e, k := m.expected, int64(b&63)
			var seq int64
			switch b >> 6 {
			case 0:
				seq = e
			case 1:
				seq = e + 1 + k
			case 2:
				seq = max(e-1-k, 0)
			case 3:
				seq = e + 64 + k*97
			}
			r.receive(seq)
			m.receive(seq)
			r.agree(t, m, i)
		}
	})
}

// TestZeroAllocHotPath holds the receive path of a flow that receives
// out of order to 0 allocs/op once warm. Each window of 200 packets
// arrives with its first one last, as when it is lost and retransmitted:
// the receive set grows to its high-water size (256 slots) inside the
// first window and never allocates again.
func TestZeroAllocHotPath(t *testing.T) {
	r := newReceiver()
	const window = 200
	var i int64
	op := func() {
		base, k := i/window*window, i%window
		seq := base + k + 1
		if k == window-1 {
			seq = base
		}
		r.receive(seq)
		i++
	}
	for i < 2*window {
		op()
	}
	if n := len(r.f.rcvOOO.flags); n != 256 {
		t.Fatalf("receive set has %d slots after warm-up, want 256", n)
	}
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Errorf("out-of-order receive allocates %v times per op", n)
	}
	if r.f.rcvExpected != i/window*window {
		t.Fatalf("rcvExpected %d after %d packets, want %d", r.f.rcvExpected, i, i/window*window)
	}
}
