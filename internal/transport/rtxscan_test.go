package transport

import (
	"math"
	"slices"
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// oracleDetectLostRetransmits is Flow.detectLostRetransmits as it stood
// before the list kept send times: a scan of the whole list on every ACK
// that advances, with nothing to return early on. It is kept verbatim
// (the element type aside) to define "same" for
// TestLostRetransmitScanMatchesOracle.
func oracleDetectLostRetransmits(f *Flow, now sim.Time) {
	if len(f.rtxOutstanding) == 0 {
		return
	}
	deadline := f.srtt + f.srtt/4
	if deadline == 0 {
		return
	}
	kept := f.rtxOutstanding[:0]
	relost := 0
	for _, ent := range f.rtxOutstanding {
		seq := ent.seq
		m := f.sent.get(seq)
		if m == nil || m.acked {
			continue // delivered; drop from tracking
		}
		if now-m.sentAt <= deadline {
			kept = append(kept, ent)
			continue
		}
		if !m.lost {
			m.lost = true
			f.inflight--
		}
		f.rtxQueue.PushBack(seq)
		relost++
	}
	f.rtxOutstanding = kept
	if relost > 0 {
		f.alg.OnPacketLoss(now, relost)
	}
}

// neverOverdue is a send time that keeps Flow.detectLostRetransmits from
// ever scanning: the oracle world stamps it on every entry.
const neverOverdue = sim.Time(math.MaxInt64)

// algCall is one call the flow made to its congestion controller.
type algCall struct {
	kind   string
	at     sim.Time
	lost   int
	sample cca.AckSample
}

// recordingAlg logs what the flow tells its controller, and when.
type recordingAlg struct {
	cca.Algorithm
	log *[]algCall
}

func (r recordingAlg) OnAck(now sim.Time, s cca.AckSample) {
	*r.log = append(*r.log, algCall{kind: "ack", at: now, sample: s})
	r.Algorithm.OnAck(now, s)
}
func (r recordingAlg) OnPacketLoss(now sim.Time, lost int) {
	*r.log = append(*r.log, algCall{kind: "loss", at: now, lost: lost})
	r.Algorithm.OnPacketLoss(now, lost)
}
func (r recordingAlg) OnCongestionEvent(now sim.Time) {
	*r.log = append(*r.log, algCall{kind: "congestion", at: now})
	r.Algorithm.OnCongestionEvent(now)
}
func (r recordingAlg) OnTimeout(now sim.Time) {
	*r.log = append(*r.log, algCall{kind: "timeout", at: now})
	r.Algorithm.OnTimeout(now)
}
func (r recordingAlg) OnExitRecovery(now sim.Time) {
	*r.log = append(*r.log, algCall{kind: "exit recovery", at: now})
	r.Algorithm.OnExitRecovery(now)
}

// oracleAlg puts the old scan back where the old code ran it. The flow
// above it never scans (every entry is neverOverdue), so when OnAck is
// called the flow is in the state detectLostRetransmits would have found:
// OnAck follows it directly and under the same condition. The wrapper
// runs the verbatim scan, refreshes the one sample field the scan can
// change, and passes the ACK on.
type oracleAlg struct {
	cca.Algorithm
	f      *Flow
	relost int // retransmissions the scan found lost again
}

func (o *oracleAlg) OnAck(now sim.Time, s cca.AckSample) {
	queued := o.f.rtxQueue.Len()
	oracleDetectLostRetransmits(o.f, now)
	o.relost += o.f.rtxQueue.Len() - queued
	s.Inflight = o.f.inflight
	o.Algorithm.OnAck(now, s)
}

// rtxWorld is one flow under a seeded loss pattern: bursts of writes into
// a small drop-tail queue that a paced bulk flow keeps hot, and link
// flaps that blackhole first transmissions, retransmissions and tail
// probes alike.
type rtxWorld struct {
	eng    *sim.Engine
	tb     *netem.Testbed
	f      *Flow
	oracle *oracleAlg // nil in the world under test
	calls  []algCall
	sends  []queued // every packet of the flow admitted to the queue
}

type queued struct {
	seq    int64
	sentAt sim.Time
}

func newRTXWorld(seed uint64, oracle bool) *rtxWorld {
	w := &rtxWorld{eng: sim.NewEngine()}
	rng := sim.NewRNG(seed)
	cfg := netem.Config{RateBps: 4_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 4 + rng.Intn(12)}
	w.tb = netem.NewTestbed(w.eng, cfg, rng.Split())
	w.tb.Bneck.EnqueueHook = func(now sim.Time, p *netem.Packet) {
		if p.Service == 0 {
			w.sends = append(w.sends, queued{p.Seq, p.SentAt})
		}
	}
	var inner cca.Algorithm = cca.NewNewReno(cca.Config{InitialCwnd: 30})
	if seed%2 == 0 {
		inner = cca.NewCubic(cca.Config{InitialCwnd: 30})
	}
	var alg cca.Algorithm = recordingAlg{inner, &w.calls}
	if oracle {
		w.oracle = &oracleAlg{Algorithm: alg}
		alg = w.oracle
	}
	w.f = NewFlow(w.tb, 0, alg, Options{})
	if oracle {
		w.oracle.f = w.f
	}
	bg := NewFlow(w.tb, 1, cca.NewBBR(cca.Config{}, cca.BBRLinux415(), rng.Split()), Options{})
	bg.SetBulk()

	// Writes short enough that their tails are often the highest
	// outstanding packet (what a tail probe resends), and flaps long
	// enough to swallow a retransmission and the probe after it.
	var write sim.Event
	write = func(sim.Time) {
		w.f.Write(int64(1+rng.Intn(40))*1500, nil)
		w.eng.After(rng.Duration(400*sim.Millisecond), write)
	}
	w.eng.After(0, write)
	var flap sim.Event
	flap = func(now sim.Time) {
		w.tb.SetLinkDown(now + 30*sim.Millisecond + rng.Duration(400*sim.Millisecond))
		w.eng.After(200*sim.Millisecond+rng.Duration(1500*sim.Millisecond), flap)
	}
	w.eng.After(rng.Duration(sim.Second), flap)
	return w
}

// liveRTX is the list as the scan sees it: entries whose packet is still
// unacknowledged. Delivered entries linger in the new list until the next
// full scan and are dropped by the oracle on every ACK; neither acts on
// them.
func (w *rtxWorld) liveRTX() []int64 {
	var live []int64
	for _, ent := range w.f.rtxOutstanding {
		if m := w.f.sent.get(ent.seq); m != nil && !m.acked {
			live = append(live, ent.seq)
		}
	}
	return live
}

// TestLostRetransmitScanMatchesOracle runs the same seeded loss pattern
// twice, once on the flow as it is and once on a flow whose lost-
// retransmit check is the old unconditional scan (oracleAlg), and
// compares them after every event, so after every ACK: the same packets
// reach the queue in the same order at the same instants (the relost set
// and the rtxQueue order), the controller hears the same calls with the
// same samples, and the sender state agrees field by field.
func TestLostRetransmitScanMatchesOracle(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	var relost, lingering, probedTwice int
	for seed := uint64(1); seed <= seeds; seed++ {
		got, want := newRTXWorld(seed, false), newRTXWorld(seed, true)
		calls, sends := 0, 0
		for got.eng.Now() < 20*sim.Second {
			probes := got.f.TailProbes
			if g, w := got.eng.Step(), want.eng.Step(); g != w || !g {
				t.Fatalf("seed %d at %v: Step() = %v, oracle %v", seed, got.eng.Now(), g, w)
			}
			for i := range want.f.rtxOutstanding {
				want.f.rtxOutstanding[i].at = neverOverdue
			}

			if g, w := got.eng.Now(), want.eng.Now(); g != w {
				t.Fatalf("seed %d: clock %v, oracle %v", seed, g, w)
			}
			if g, w := got.eng.Pending(), want.eng.Pending(); g != w {
				t.Fatalf("seed %d at %v: %d events pending, oracle %d", seed, got.eng.Now(), g, w)
			}
			if len(got.calls) != len(want.calls) || len(got.sends) != len(want.sends) {
				t.Fatalf("seed %d at %v: %d controller calls and %d sends, oracle %d and %d",
					seed, got.eng.Now(), len(got.calls), len(got.sends), len(want.calls), len(want.sends))
			}
			for ; calls < len(got.calls); calls++ {
				if got.calls[calls] != want.calls[calls] {
					t.Fatalf("seed %d: controller call %d is %+v, oracle %+v", seed, calls, got.calls[calls], want.calls[calls])
				}
			}
			for ; sends < len(got.sends); sends++ {
				if got.sends[sends] != want.sends[sends] {
					t.Fatalf("seed %d: send %d is %+v, oracle %+v", seed, sends, got.sends[sends], want.sends[sends])
				}
			}
			g, w := got.f, want.f
			if g.nextSeq != w.nextSeq || g.cumAck != w.cumAck || g.inflight != w.inflight ||
				g.rtxQueue.Len() != w.rtxQueue.Len() || g.lossScan != w.lossScan ||
				g.inRecovery != w.inRecovery || g.delivered != w.delivered || g.srtt != w.srtt ||
				g.Retransmits != w.Retransmits || g.TailProbes != w.TailProbes || g.Timeouts != w.Timeouts {
				t.Fatalf("seed %d at %v: sender state diverged:\n got %+v\nwant %+v", seed, got.eng.Now(), g, w)
			}
			gl, wl := got.liveRTX(), want.liveRTX()
			if !slices.Equal(gl, wl) {
				t.Fatalf("seed %d at %v: live retransmissions %v, oracle %v", seed, got.eng.Now(), gl, wl)
			}

			// What the pattern covered.
			if len(g.rtxOutstanding) > len(gl) {
				lingering++
			}
			if g.TailProbes > probes {
				last := g.rtxOutstanding[len(g.rtxOutstanding)-1].seq
				for _, ent := range g.rtxOutstanding[:len(g.rtxOutstanding)-1] {
					if ent.seq == last {
						probedTwice++
						break
					}
				}
			}
		}
		relost += want.oracle.relost
	}
	t.Logf("%d retransmissions lost again, %d events after which delivered entries were still listed, %d tail probes of a listed sequence",
		relost, lingering, probedTwice)
	if relost == 0 || lingering == 0 || probedTwice == 0 {
		t.Fatal("the loss patterns did not cover a re-loss, a delivered entry left listed by an early return and a tail probe of a sequence already listed")
	}
}
