package cca

import (
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// BBR state machine states, shared by BBRv1 and BBRv3.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe_bw"
	case bbrProbeRTT:
		return "probe_rtt"
	}
	return "unknown"
}

const (
	bbrBwWindowRounds = 10
	bbrMinRTTWindow   = 10 * sim.Second
	bbrProbeRTTTime   = 200 * sim.Millisecond
	bbrMinCwnd        = 4
)

// bbrModel is the path model BBRv1 and BBRv3 share, embedded in both:
// round counting, the bottleneck-bandwidth estimate (windowed max of
// delivery-rate samples over ten rounds), the round-trip propagation
// time (windowed min over ten seconds), the startup full-pipe check,
// ProbeRTT, and the window saved around recovery and timeouts. What
// differs between the versions — the ProbeBW gains and how they cycle,
// and v3's loss response — lives in the embedding type.
type bbrModel struct {
	rng      *sim.RNG
	initCwnd int

	state bbrState

	// Round counting.
	round             int64
	nextRoundDelivery int64
	roundStart        bool

	// Path filters.
	bwFilter   maxFilter
	rtProp     sim.Time
	rtPropAt   sim.Time
	rtPropSeen bool

	// Startup full-pipe detection.
	fullBw      int64
	fullBwCount int
	filledPipe  bool

	probeRTTDoneAt sim.Time

	// Loss recovery.
	inRecovery bool
	priorCwnd  int

	cwnd       int
	pacingRate int64
}

// newBBRModel returns a model in Startup. rng nil means a fixed stream.
func newBBRModel(cfg Config, rng *sim.RNG, startupGain float64) bbrModel {
	cfg = cfg.withDefaults()
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	return bbrModel{
		rng:      rng,
		initCwnd: cfg.InitialCwnd,
		cwnd:     cfg.InitialCwnd,
		// The initial window over an assumed 1 ms RTT keeps startup from
		// being transport-limited before the first sample.
		pacingRate: int64(float64(cfg.InitialCwnd*netem.WirePacketSize) * startupGain / 0.001),
	}
}

// BtlBw returns the current bottleneck-bandwidth estimate in bytes/sec.
func (m *bbrModel) BtlBw() int64 { return m.bwFilter.Max() }

// updateModel counts rounds and feeds one ACK to the path filters. It
// reports whether the min-RTT filter had expired before this ACK (Linux
// computes the expiry before refreshing the filter, and so do we).
func (m *bbrModel) updateModel(now sim.Time, s *AckSample) (rtExpired bool) {
	// A round trip ends when a packet sent at-or-after the previous
	// round's delivered mark is ACKed (tcp_bbr.c).
	m.roundStart = false
	if s.PacketDelivered >= m.nextRoundDelivery {
		m.round++
		m.roundStart = true
		m.nextRoundDelivery = s.TotalDelivered
	}
	// App-limited samples may only raise the estimate if they beat it
	// anyway (they prove at least that much bandwidth exists).
	if s.DeliveryRate > 0 && (!s.RateAppLimited || s.DeliveryRate > m.BtlBw()) {
		m.bwFilter.Add(m.round, s.DeliveryRate, m.round-bbrBwWindowRounds)
	}
	rtExpired = m.rtPropSeen && now > m.rtPropAt+bbrMinRTTWindow
	if s.RTT > 0 && (!m.rtPropSeen || s.RTT <= m.rtProp || rtExpired) {
		m.rtProp = s.RTT
		m.rtPropAt = now
		m.rtPropSeen = true
	}
	return rtExpired
}

// checkFullPipe declares the pipe full after three rounds without 25%
// bandwidth growth, or on a round start without growth when loss is set.
func (m *bbrModel) checkFullPipe(s *AckSample, loss bool) {
	if m.filledPipe || !m.roundStart || s.RateAppLimited {
		return
	}
	bw := m.BtlBw()
	if float64(bw) >= float64(m.fullBw)*1.25 {
		m.fullBw = bw
		m.fullBwCount = 0
		return
	}
	m.fullBwCount++
	if m.fullBwCount >= 3 || loss {
		m.filledPipe = true
	}
}

// bdpPackets returns gain × bw × RTProp in packets, at least the minimum
// window; the initial window until both estimates exist.
func (m *bbrModel) bdpPackets(gain float64, bw int64) int {
	if bw == 0 || !m.rtPropSeen {
		return m.initCwnd
	}
	bdpBytes := float64(bw) * m.rtProp.Seconds()
	return max(int(gain*bdpBytes/netem.WirePacketSize), bbrMinCwnd)
}

// probeRTTDone runs ProbeRTT's timer: it starts once inflight has drained
// to the minimum window and lasts bbrProbeRTTTime. When it ends, the
// min-RTT estimate counts as freshly validated, the saved window comes
// back, and probeRTTDone reports true; the caller picks the next state.
func (m *bbrModel) probeRTTDone(now sim.Time, s *AckSample) bool {
	if s.Inflight <= bbrMinCwnd && m.probeRTTDoneAt == 0 {
		m.probeRTTDoneAt = now + bbrProbeRTTTime
	}
	if m.probeRTTDoneAt == 0 || now < m.probeRTTDoneAt {
		return false
	}
	m.rtPropAt = now
	m.restoreCwnd()
	return true
}

// checkProbeRTT enters ProbeRTT when the min-RTT estimate went stale.
func (m *bbrModel) checkProbeRTT(rtExpired bool) {
	if m.state != bbrProbeRTT && rtExpired {
		m.state = bbrProbeRTT
		m.priorCwnd = m.cwnd
		m.probeRTTDoneAt = 0
	}
}

// setControls paces at pacingGain × bw (when bw is known) and sets the
// window to target, except in ProbeRTT, which holds the minimum window.
// With conserve, the first recovery round caps the window at inflight
// plus the newly acked (packet conservation).
func (m *bbrModel) setControls(s *AckSample, pacingGain float64, bw int64, target int, conserve bool) {
	if bw > 0 {
		m.pacingRate = int64(pacingGain * float64(bw))
	}
	if m.state == bbrProbeRTT {
		m.cwnd = bbrMinCwnd
		return
	}
	if conserve && m.inRecovery {
		target = min(target, max(s.Inflight+s.AckedPackets, bbrMinCwnd))
	}
	m.cwnd = target
}

// enterRecovery saves the window when a loss-recovery episode starts.
func (m *bbrModel) enterRecovery() {
	if !m.inRecovery {
		m.inRecovery = true
		m.priorCwnd = m.cwnd
	}
}

func (m *bbrModel) restoreCwnd() {
	if m.priorCwnd > m.cwnd {
		m.cwnd = m.priorCwnd
	}
}

// OnExitRecovery implements Algorithm.
func (m *bbrModel) OnExitRecovery(sim.Time) {
	m.inRecovery = false
	m.restoreCwnd()
}

// OnTimeout implements Algorithm.
func (m *bbrModel) OnTimeout(sim.Time) {
	m.priorCwnd = m.cwnd
	m.cwnd = bbrMinCwnd
}

// CwndPackets implements Algorithm.
func (m *bbrModel) CwndPackets() int { return max(m.cwnd, 1) }

// PacingRate implements Algorithm.
func (m *bbrModel) PacingRate() int64 { return m.pacingRate }
