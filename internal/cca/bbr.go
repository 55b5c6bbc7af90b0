package cca

import "prudentia/internal/sim"

// BBRVariant captures the implementation differences between BBRv1 trees.
// The paper (Obs 13, Fig 9b) shows Linux 4.15 and Linux 5.15 "BBRv1"
// produce different fairness outcomes; these are the knobs that changed.
type BBRVariant struct {
	// CwndGainProbeBW is the cwnd gain while cruising in ProbeBW.
	CwndGainProbeBW float64
	// RecoveryConservation enables the packet-conservation cap during
	// the first round of loss recovery that later kernels added; it makes
	// the algorithm measurably less contentious against other
	// BBR flows while conceding less to application-limited competitors.
	RecoveryConservation bool
}

// BBRLinux415 is the BBRv1 tree the paper's 2022-era iPerf baseline ran.
func BBRLinux415() BBRVariant {
	return BBRVariant{CwndGainProbeBW: 2.0}
}

// BBRLinux515 is the BBRv1 tree in Linux 5.15 (the paper's 2023 baseline).
func BBRLinux515() BBRVariant {
	v := BBRLinux415()
	v.RecoveryConservation = true
	return v
}

// BBRv1 gains: startup's 2/ln 2 and its inverse for Drain.
const (
	bbrHighGain  = 2.885
	bbrDrainGain = 1 / bbrHighGain
)

// bbrGainCycle is the ProbeBW pacing-gain cycle: one probing phase, one
// draining phase, six cruising phases, each lasting about one min-RTT.
var bbrGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBRAlg implements BBRv1 (Cardwell et al., "BBR: Congestion-Based
// Congestion Control"): it builds a model of the path — bottleneck
// bandwidth (windowed max of delivery-rate samples) and round-trip
// propagation time (windowed min) — and paces at pacing_gain × BtlBw
// while capping inflight at cwnd_gain × BDP. YouTube (via QUIC), Dropbox,
// Vimeo, Mega, and wikipedia.org all run BBRv1 derivatives per Table 1.
type BBRAlg struct {
	bbrModel
	variant BBRVariant

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStamp sim.Time
}

// NewBBR returns a BBRv1 controller of the given variant. rng drives the
// ProbeBW cycle randomization; pass a deterministic per-flow stream.
func NewBBR(cfg Config, variant BBRVariant, rng *sim.RNG) *BBRAlg {
	return &BBRAlg{bbrModel: newBBRModel(cfg, rng, bbrHighGain), variant: variant}
}

// OnAck implements Algorithm.
func (b *BBRAlg) OnAck(now sim.Time, s AckSample) {
	rtExpired := b.updateModel(now, &s)
	// v1 enters ProbeRTT only on an ACK that carries an RTT sample;
	// tcp_bbr enters whenever the filter has expired. The deviation is
	// kept until the Fig 9 audit decides it (ROADMAP 1 (c)).
	rtExpired = rtExpired && s.RTT > 0
	b.checkFullPipe(&s, false)
	b.updateState(now, &s, rtExpired)
	b.updateControls(&s)
}

func (b *BBRAlg) updateState(now sim.Time, s *AckSample, rtExpired bool) {
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if s.Inflight <= b.bdpPackets(1.0, b.BtlBw()) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCycle(now, s)
	case bbrProbeRTT:
		if b.probeRTTDone(now, s) {
			if b.filledPipe {
				b.enterProbeBW(now)
			} else {
				b.state = bbrStartup
			}
		}
	}
	b.checkProbeRTT(rtExpired)
}

// enterProbeBW starts the gain cycle at a random phase other than the
// 0.75 drain phase (index 1), as both kernels do.
func (b *BBRAlg) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cycleIndex = b.rng.Intn(len(bbrGainCycle) - 1)
	if b.cycleIndex >= 1 {
		b.cycleIndex++
	}
	b.cycleIndex %= len(bbrGainCycle)
	b.cycleStamp = now
}

func (b *BBRAlg) advanceCycle(now sim.Time, s *AckSample) {
	elapsed := now - b.cycleStamp
	gain := bbrGainCycle[b.cycleIndex]
	advance := elapsed > b.rtProp
	// Leave the probing phase only once we actually filled gain×BDP (or
	// suffered loss); leave the draining phase as soon as inflight is
	// back at the BDP.
	if gain > 1 {
		advance = advance && (s.InRecovery || s.Inflight >= b.bdpPackets(gain, b.BtlBw()))
	}
	if gain < 1 && s.Inflight <= b.bdpPackets(1, b.BtlBw()) {
		advance = true
	}
	if advance {
		b.cycleIndex = (b.cycleIndex + 1) % len(bbrGainCycle)
		b.cycleStamp = now
	}
}

func (b *BBRAlg) updateControls(s *AckSample) {
	pacingGain, cwndGain := 1.0, 1.0 // ProbeRTT
	switch b.state {
	case bbrStartup:
		pacingGain, cwndGain = bbrHighGain, bbrHighGain
	case bbrDrain:
		pacingGain, cwndGain = bbrDrainGain, bbrHighGain
	case bbrProbeBW:
		pacingGain, cwndGain = bbrGainCycle[b.cycleIndex], b.variant.CwndGainProbeBW
	}
	bw := b.BtlBw()
	b.setControls(s, pacingGain, bw, b.bdpPackets(cwndGain, bw), b.variant.RecoveryConservation)
}

// OnCongestionEvent implements Algorithm. BBRv1 famously does not reduce
// its rate on loss; only the optional recovery conservation applies.
func (b *BBRAlg) OnCongestionEvent(sim.Time) { b.enterRecovery() }
