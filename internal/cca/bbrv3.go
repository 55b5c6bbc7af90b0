package cca

import "prudentia/internal/sim"

// bbr3Phase enumerates the BBRv3 ProbeBW sub-phases.
type bbr3Phase int

const (
	bbr3Down bbr3Phase = iota
	bbr3Cruise
	bbr3Refill
	bbr3Up
)

// BBRv3Alg implements the BBRv3 algorithm as described in the IETF CCWG
// material the paper cites [5]: the v1 model (windowed-max bandwidth,
// windowed-min RTT) extended with an explicit loss response (the
// short-term bw_lo bound, β=0.7), cruising headroom (keep inflight below
// ~85% of the estimated BDP to leave room for entrants), and a
// DOWN/CRUISE/REFILL/UP probing ladder in place of the v1 gain cycle.
// Google deployed BBRv3 to Google Drive during the paper's measurement
// period, which Fig 9a shows made it measurably kinder to competitors.
type BBRv3Alg struct {
	bbrModel

	phase      bbr3Phase
	phaseStamp sim.Time
	cruiseLen  sim.Time

	bwLo        int64 // short-term loss-responsive bound (0 = unset)
	lossInRound bool
}

// BBRv3 constants (from the IETF slides / Linux v3 alpha). v3's startup
// cwnd gain is 2.0; this model sets the window with the 2.77 pacing gain
// in Startup and Drain, a deviation kept until the Fig 9a audit decides
// it (ROADMAP 1 (c)).
const (
	bbr3StartupGain   = 2.77
	bbr3DrainGain     = 1 / 2.77
	bbr3ProbeDownGain = 0.9
	bbr3ProbeUpGain   = 1.25
	bbr3Beta          = 0.7
	bbr3Headroom      = 0.85
	bbr3CwndGain      = 2.0
)

// NewBBRv3 returns a BBRv3 controller.
func NewBBRv3(cfg Config, rng *sim.RNG) *BBRv3Alg {
	return &BBRv3Alg{bbrModel: newBBRModel(cfg, rng, bbr3StartupGain)}
}

// effectiveBw applies the loss-responsive short-term bound.
func (b *BBRv3Alg) effectiveBw() int64 {
	bw := b.BtlBw()
	if b.bwLo > 0 && b.bwLo < bw {
		return b.bwLo
	}
	return bw
}

// OnAck implements Algorithm.
func (b *BBRv3Alg) OnAck(now sim.Time, s AckSample) {
	rtExpired := b.updateModel(now, &s)
	// The loss mark is cleared on the ACK that starts a round, the only
	// ACK checkFullPipe reads it on, so v3 never leaves Startup on loss.
	// The deviation is kept until the Fig 9a audit decides it (ROADMAP
	// 1 (c)).
	if b.roundStart {
		b.lossInRound = false
	}
	b.checkFullPipe(&s, b.lossInRound)
	b.updateState(now, &s, rtExpired)
	b.updateControls(&s)
}

func (b *BBRv3Alg) updateState(now sim.Time, s *AckSample, rtExpired bool) {
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if s.Inflight <= b.bdpPackets(1.0, b.effectiveBw()) {
			b.enterProbeBW(now, bbr3Down)
		}
	case bbrProbeBW:
		b.advancePhase(now, s)
	case bbrProbeRTT:
		if b.probeRTTDone(now, s) {
			b.enterProbeBW(now, bbr3Down)
		}
	}
	b.checkProbeRTT(rtExpired)
}

func (b *BBRv3Alg) enterProbeBW(now sim.Time, ph bbr3Phase) {
	b.state = bbrProbeBW
	b.phase = ph
	b.phaseStamp = now
	if ph == bbr3Cruise {
		// Probe for bandwidth every couple of seconds (v3 randomizes
		// between roughly 2 and 3 seconds).
		b.cruiseLen = 2*sim.Second + b.rng.Duration(sim.Second)
	}
}

func (b *BBRv3Alg) advancePhase(now sim.Time, s *AckSample) {
	switch b.phase {
	case bbr3Down:
		// Deflate the queue until inflight is below headroom×BDP, but
		// never longer than about one round trip — lingering here would
		// decay the bandwidth filter with down-paced samples.
		if s.Inflight <= b.bdpPackets(bbr3Headroom, b.effectiveBw()) ||
			now-b.phaseStamp > b.rtProp {
			b.enterProbeBW(now, bbr3Cruise)
		}
	case bbr3Cruise:
		if now-b.phaseStamp >= b.cruiseLen {
			b.enterProbeBW(now, bbr3Refill)
		}
	case bbr3Refill:
		// One round to refill the pipe, then probe up; probing resets
		// the short-term loss bound.
		if b.roundStart {
			b.bwLo = 0
			b.enterProbeBW(now, bbr3Up)
		}
	case bbr3Up:
		if s.InRecovery || s.Inflight >= b.bdpPackets(1.25, b.BtlBw()) ||
			now-b.phaseStamp > 3*b.rtProp {
			b.enterProbeBW(now, bbr3Down)
		}
	}
}

func (b *BBRv3Alg) updateControls(s *AckSample) {
	pacingGain, cwndGain := 1.0, 1.0 // ProbeRTT, Cruise and Refill
	switch b.state {
	case bbrStartup:
		pacingGain, cwndGain = bbr3StartupGain, bbr3StartupGain
	case bbrDrain:
		pacingGain, cwndGain = bbr3DrainGain, bbr3StartupGain
	case bbrProbeBW:
		cwndGain = bbr3CwndGain
		switch b.phase {
		case bbr3Down:
			pacingGain = bbr3ProbeDownGain
		case bbr3Up:
			pacingGain = bbr3ProbeUpGain
		}
	}
	bw := b.effectiveBw()
	target := b.bdpPackets(cwndGain, bw)
	if b.state == bbrProbeBW && b.phase == bbr3Cruise {
		// Cruise with headroom: leave ~15% of the pipe unclaimed.
		target = min(target, b.bdpPackets(bbr3CwndGain*bbr3Headroom, bw))
	}
	b.setControls(s, pacingGain, bw, target, true)
}

// OnCongestionEvent implements Algorithm: v3's loss response bounds the
// short-term bandwidth estimate at β× the latest estimate.
func (b *BBRv3Alg) OnCongestionEvent(sim.Time) {
	b.lossInRound = true
	b.enterRecovery()
	// Bound from the long-term estimate rather than the already-reduced
	// effective bandwidth so repeated loss within one probe cycle does
	// not compound the cut toward zero.
	lo := int64(bbr3Beta * float64(b.BtlBw()))
	if b.bwLo == 0 || lo < b.bwLo {
		b.bwLo = lo
	}
}
