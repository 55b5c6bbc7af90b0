package cca

import (
	"prudentia/internal/sim"
)

// bbr3Phase enumerates the BBRv3 ProbeBW sub-phases.
type bbr3Phase int

const (
	bbr3Down bbr3Phase = iota
	bbr3Cruise
	bbr3Refill
	bbr3Up
)

func (p bbr3Phase) String() string {
	switch p {
	case bbr3Down:
		return "down"
	case bbr3Cruise:
		return "cruise"
	case bbr3Refill:
		return "refill"
	case bbr3Up:
		return "up"
	}
	return "unknown"
}

// BBRv3Alg implements the BBRv3 algorithm as described in the IETF CCWG
// material the paper cites [5]: the v1 model (windowed-max bandwidth,
// windowed-min RTT) extended with an explicit loss response (the
// short-term bw_lo bound, β=0.7), cruising headroom (keep inflight below
// ~85% of the estimated BDP to leave room for entrants), and a
// DOWN/CRUISE/REFILL/UP probing ladder in place of the v1 gain cycle.
// Google deployed BBRv3 to Google Drive during the paper's measurement
// period, which Fig 9a shows made it measurably kinder to competitors.
type BBRv3Alg struct {
	cfg Config
	rng *sim.RNG

	state bbrState // reuses startup/drain/probebw/probertt
	phase bbr3Phase

	bwFilter   maxFilter
	bwLo       int64 // short-term loss-responsive bound (0 = unset)
	rtProp     sim.Time
	rtPropAt   sim.Time
	rtPropSeen bool

	round             int64
	nextRoundDelivery int64
	roundStart        bool

	fullBw      int64
	fullBwCount int
	filledPipe  bool

	phaseStamp     sim.Time
	cruiseLen      sim.Time
	lossInRound    bool
	probeRTTDoneAt sim.Time
	priorCwnd      int

	inRecovery bool

	pacingGain float64
	cwndGain   float64
	cwnd       int
	pacingRate int64
}

// BBRv3 constants (from the IETF slides / Linux v3 alpha).
const (
	bbr3StartupGain   = 2.77
	bbr3StartupCwnd   = 2.0
	bbr3DrainGain     = 1 / 2.77
	bbr3ProbeDownGain = 0.9
	bbr3ProbeUpGain   = 1.25
	bbr3Beta          = 0.7
	bbr3Headroom      = 0.85
	bbr3CwndGain      = 2.0
)

// NewBBRv3 returns a BBRv3 controller.
func NewBBRv3(cfg Config, rng *sim.RNG) *BBRv3Alg {
	cfg = cfg.withDefaults()
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	b := &BBRv3Alg{
		cfg:        cfg,
		rng:        rng,
		state:      bbrStartup,
		pacingGain: bbr3StartupGain,
		cwndGain:   bbr3StartupCwnd,
		cwnd:       cfg.InitialCwnd,
	}
	b.pacingRate = int64(float64(cfg.InitialCwnd*cfg.MSS) * bbr3StartupGain / 0.001)
	return b
}

// Name implements Algorithm.
func (b *BBRv3Alg) Name() string { return "bbr3" }

// State exposes state+phase for tests and traces.
func (b *BBRv3Alg) State() string {
	if b.state == bbrProbeBW {
		return "probe_bw/" + b.phase.String()
	}
	return b.state.String()
}

// maxBw returns the windowed-max bandwidth estimate.
func (b *BBRv3Alg) maxBw() int64 { return b.bwFilter.Max() }

// effectiveBw applies the loss-responsive short-term bound.
func (b *BBRv3Alg) effectiveBw() int64 {
	bw := b.maxBw()
	if b.bwLo > 0 && b.bwLo < bw {
		return b.bwLo
	}
	return bw
}

func (b *BBRv3Alg) bdpPackets(gain float64, bw int64) int {
	if bw == 0 || !b.rtPropSeen {
		return b.cfg.InitialCwnd
	}
	pkts := int(gain * float64(bw) * b.rtProp.Seconds() / float64(b.cfg.MSS))
	if pkts < bbrMinCwnd {
		pkts = bbrMinCwnd
	}
	return pkts
}

// OnAck implements Algorithm.
func (b *BBRv3Alg) OnAck(now sim.Time, s AckSample) {
	b.roundStart = false
	if s.PacketDelivered >= b.nextRoundDelivery {
		b.round++
		b.roundStart = true
		b.nextRoundDelivery = s.TotalDelivered
		b.lossInRound = false
	}

	if s.DeliveryRate > 0 && (!s.RateAppLimited || s.DeliveryRate > b.maxBw()) {
		b.bwFilter.Add(b.round, s.DeliveryRate, b.round-bbrBwWindowRounds)
	}
	rtExpired := b.rtPropSeen && now > b.rtPropAt+bbrMinRTTWindow
	if s.RTT > 0 {
		if !b.rtPropSeen || s.RTT <= b.rtProp || rtExpired {
			b.rtProp = s.RTT
			b.rtPropAt = now
			b.rtPropSeen = true
		}
	}

	b.checkFullPipe(s)
	b.updateState(now, s, rtExpired)
	b.updateControls(now, s)
}

func (b *BBRv3Alg) checkFullPipe(s AckSample) {
	if b.filledPipe || !b.roundStart || s.RateAppLimited {
		return
	}
	bw := b.maxBw()
	if float64(bw) >= float64(b.fullBw)*1.25 {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	// v3 also exits startup on sustained loss.
	if b.fullBwCount >= 3 || b.lossInRound {
		b.filledPipe = true
	}
}

func (b *BBRv3Alg) updateState(now sim.Time, s AckSample, rtExpired bool) {
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
		if s.Inflight <= bbrMinCwnd && b.probeRTTDoneAt == 0 {
			b.probeRTTDoneAt = now + bbrProbeRTTTime
		}
		if b.probeRTTDoneAt != 0 && now >= b.probeRTTDoneAt {
			b.rtPropAt = now
			if b.priorCwnd > b.cwnd {
				b.cwnd = b.priorCwnd
			}
			b.enterProbeBW(now, bbr3Down)
		}
	}
	if b.state != bbrProbeRTT && rtExpired {
		b.state = bbrProbeRTT
		b.priorCwnd = b.cwnd
		b.probeRTTDoneAt = 0
	}
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

func (b *BBRv3Alg) advancePhase(now sim.Time, s AckSample) {
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
		if s.InRecovery || s.Inflight >= b.bdpPackets(1.25, b.maxBw()) ||
			now-b.phaseStamp > 3*b.rtProp {
			b.enterProbeBW(now, bbr3Down)
		}
	}
}

func (b *BBRv3Alg) updateControls(now sim.Time, s AckSample) {
	switch b.state {
	case bbrStartup:
		b.pacingGain, b.cwndGain = bbr3StartupGain, bbr3StartupGain
	case bbrDrain:
		b.pacingGain, b.cwndGain = bbr3DrainGain, bbr3StartupGain
	case bbrProbeBW:
		b.cwndGain = bbr3CwndGain
		switch b.phase {
		case bbr3Down:
			b.pacingGain = bbr3ProbeDownGain
		case bbr3Cruise, bbr3Refill:
			b.pacingGain = 1.0
		case bbr3Up:
			b.pacingGain = bbr3ProbeUpGain
		}
	case bbrProbeRTT:
		b.pacingGain, b.cwndGain = 1, 1
	}

	bw := b.effectiveBw()
	if bw > 0 {
		b.pacingRate = int64(b.pacingGain * float64(bw))
	}

	if b.state == bbrProbeRTT {
		b.cwnd = bbrMinCwnd
		return
	}
	target := b.bdpPackets(b.cwndGain, bw)
	if b.state == bbrProbeBW && b.phase == bbr3Cruise {
		// Cruise with headroom: leave ~15% of the pipe unclaimed.
		hr := b.bdpPackets(bbr3CwndGain*bbr3Headroom, bw)
		if hr < target {
			target = hr
		}
	}
	if b.inRecovery {
		cap := s.Inflight + s.AckedPackets
		if cap < bbrMinCwnd {
			cap = bbrMinCwnd
		}
		if target > cap {
			target = cap
		}
	}
	b.cwnd = target
}

// OnCongestionEvent implements Algorithm: v3's loss response bounds the
// short-term bandwidth estimate at β× the latest estimate.
func (b *BBRv3Alg) OnCongestionEvent(now sim.Time) {
	b.lossInRound = true
	if !b.inRecovery {
		b.inRecovery = true
		b.priorCwnd = b.cwnd
	}
	// Bound from the long-term estimate rather than the already-reduced
	// effective bandwidth so repeated loss within one probe cycle does
	// not compound the cut toward zero.
	lo := int64(bbr3Beta * float64(b.maxBw()))
	if b.bwLo == 0 || lo < b.bwLo {
		b.bwLo = lo
	}
}

// OnPacketLoss implements Algorithm.
func (b *BBRv3Alg) OnPacketLoss(sim.Time, int) {}

// OnExitRecovery implements Algorithm.
func (b *BBRv3Alg) OnExitRecovery(sim.Time) {
	b.inRecovery = false
	if b.priorCwnd > b.cwnd {
		b.cwnd = b.priorCwnd
	}
}

// OnTimeout implements Algorithm.
func (b *BBRv3Alg) OnTimeout(sim.Time) {
	b.priorCwnd = b.cwnd
	b.cwnd = bbrMinCwnd
}

// CwndPackets implements Algorithm.
func (b *BBRv3Alg) CwndPackets() int {
	if b.cwnd < 1 {
		return 1
	}
	return b.cwnd
}

// PacingRate implements Algorithm.
func (b *BBRv3Alg) PacingRate() int64 { return b.pacingRate }
