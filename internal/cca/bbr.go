package cca

import (
	"fmt"

	"prudentia/internal/sim"
)

// BBR state machine states.
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

// BBRVariant captures the implementation differences between BBRv1 trees.
// The paper (Obs 13, Fig 9b) shows Linux 4.15 and Linux 5.15 "BBRv1"
// produce different fairness outcomes; these are the knobs that changed.
type BBRVariant struct {
	// Label distinguishes the variant in reports ("linux-4.15", …).
	Label string
	// HighGain is the startup pacing/cwnd gain (2/ln 2 ≈ 2.885).
	HighGain float64
	// DrainGain is the drain-phase pacing gain (1/HighGain).
	DrainGain float64
	// CwndGainProbeBW is the cwnd gain while cruising in ProbeBW.
	CwndGainProbeBW float64
	// RecoveryConservation enables the packet-conservation cap during
	// the first round of loss recovery that later kernels added; it makes
	// the algorithm measurably less contentious against other
	// BBR flows while conceding less to application-limited competitors.
	RecoveryConservation bool
	// RandomizeCycle randomizes the initial ProbeBW gain-cycle phase
	// (both kernels do; disabled only in deterministic unit tests).
	RandomizeCycle bool
	// IdleRestartWindow, if nonzero, caps the burst after an idle period
	// (CWND reduction on restart); later kernels pace out of idle.
	IdleRestartWindow int
	// NoPacing disables the pacing engine: the flow becomes purely
	// window-driven (ACK-clocked bursts up to cwnd_gain × BDP) while
	// remaining loss-blind. This is how BBR degrades on stacks without a
	// pacing-capable qdisc, and it is dramatically more contentious than
	// paced BBR; Prudentia's Mega model uses it (the paper notes Mega's
	// BBR behaves unlike stock kernels: "it is also possible that Mega is
	// running a slightly different version of BBR", §4 Obs 4).
	NoPacing bool
}

// BBRUnpaced returns the cwnd-driven BBRv1 flavour Mega's servers
// exhibit.
func BBRUnpaced() BBRVariant {
	v := BBRLinux415()
	v.Label = "unpaced"
	v.NoPacing = true
	return v
}

// BBRLinux415 is the BBRv1 tree the paper's 2022-era iPerf baseline ran.
func BBRLinux415() BBRVariant {
	return BBRVariant{
		Label:           "linux-4.15",
		HighGain:        2.885,
		DrainGain:       1 / 2.885,
		CwndGainProbeBW: 2.0,
		RandomizeCycle:  true,
	}
}

// BBRLinux515 is the BBRv1 tree in Linux 5.15 (the paper's 2023 baseline).
func BBRLinux515() BBRVariant {
	v := BBRLinux415()
	v.Label = "linux-5.15"
	v.RecoveryConservation = true
	v.IdleRestartWindow = 10
	return v
}

const (
	bbrBwWindowRounds = 10
	bbrMinRTTWindow   = 10 * sim.Second
	bbrProbeRTTTime   = 200 * sim.Millisecond
	bbrMinCwnd        = 4
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
	cfg     Config
	variant BBRVariant
	rng     *sim.RNG

	state bbrState

	// Path model.
	bwFilter   maxFilter
	rtProp     sim.Time
	rtPropAt   sim.Time
	rtPropSeen bool

	// Round counting.
	round             int64
	nextRoundDelivery int64
	roundStart        bool

	// Startup full-pipe detection.
	fullBw      int64
	fullBwCount int
	filledPipe  bool

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStamp sim.Time

	// ProbeRTT bookkeeping.
	probeRTTDoneAt sim.Time
	probeRTTActive bool

	// Loss recovery.
	inRecovery   bool
	priorCwnd    int
	conserveCwnd int

	pacingGain float64
	cwndGain   float64
	cwnd       int
	pacingRate int64
}

// NewBBR returns a BBRv1 controller of the given variant. rng drives the
// ProbeBW cycle randomization; pass a deterministic per-flow stream.
func NewBBR(cfg Config, variant BBRVariant, rng *sim.RNG) *BBRAlg {
	cfg = cfg.withDefaults()
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	b := &BBRAlg{
		cfg:        cfg,
		variant:    variant,
		rng:        rng,
		state:      bbrStartup,
		pacingGain: variant.HighGain,
		cwndGain:   variant.HighGain,
		cwnd:       cfg.InitialCwnd,
	}
	// Initial pacing: initial window over an assumed 1 ms RTT keeps
	// startup from being transport-limited before the first sample.
	b.pacingRate = int64(float64(cfg.InitialCwnd*cfg.MSS) * variant.HighGain / 0.001)
	return b
}

// Name implements Algorithm.
func (b *BBRAlg) Name() string { return fmt.Sprintf("bbr1/%s", b.variant.Label) }

// State exposes the current state for tests and traces.
func (b *BBRAlg) State() string { return b.state.String() }

// BtlBw returns the current bottleneck-bandwidth estimate in bytes/sec.
func (b *BBRAlg) BtlBw() int64 { return b.bwFilter.Max() }

// RTProp returns the current min-RTT estimate.
func (b *BBRAlg) RTProp() sim.Time { return b.rtProp }

func (b *BBRAlg) updateBw(s AckSample) {
	if s.DeliveryRate <= 0 {
		return
	}
	// App-limited samples may only raise the estimate if they beat it
	// anyway (they prove at least that much bandwidth exists).
	if s.RateAppLimited && s.DeliveryRate <= b.BtlBw() {
		return
	}
	b.bwFilter.Add(b.round, s.DeliveryRate, b.round-bbrBwWindowRounds)
}

// updateRTProp updates the min-RTT filter and reports whether the filter
// had expired before this sample (the ProbeRTT entry condition; Linux
// computes the expiry before refreshing the filter, and so do we).
func (b *BBRAlg) updateRTProp(now sim.Time, rtt sim.Time) bool {
	expired := b.rtPropSeen && now > b.rtPropAt+bbrMinRTTWindow
	if rtt <= 0 {
		return false
	}
	if !b.rtPropSeen || rtt <= b.rtProp || expired {
		b.rtProp = rtt
		b.rtPropAt = now
		b.rtPropSeen = true
	}
	return expired
}

// bdpPackets returns gain × BDP in packets.
func (b *BBRAlg) bdpPackets(gain float64) int {
	bw := b.BtlBw()
	if bw == 0 || !b.rtPropSeen {
		return b.cfg.InitialCwnd
	}
	bdpBytes := float64(bw) * b.rtProp.Seconds()
	pkts := int(gain * bdpBytes / float64(b.cfg.MSS))
	if pkts < bbrMinCwnd {
		pkts = bbrMinCwnd
	}
	return pkts
}

// OnAck implements Algorithm.
func (b *BBRAlg) OnAck(now sim.Time, s AckSample) {
	// Round accounting (per tcp_bbr.c): a round trip ends when a packet
	// sent at-or-after the previous round's delivered mark is ACKed.
	b.roundStart = false
	if s.PacketDelivered >= b.nextRoundDelivery {
		b.round++
		b.roundStart = true
		b.nextRoundDelivery = s.TotalDelivered
	}

	b.updateBw(s)
	rtExpired := b.updateRTProp(now, s.RTT)

	b.checkFullPipe(s)
	b.updateState(now, s, rtExpired)
	b.updateControls(now, s)
}

func (b *BBRAlg) checkFullPipe(s AckSample) {
	if b.filledPipe || !b.roundStart || s.RateAppLimited {
		return
	}
	bw := b.BtlBw()
	if float64(bw) >= float64(b.fullBw)*1.25 {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= 3 {
		b.filledPipe = true
	}
}

func (b *BBRAlg) updateState(now sim.Time, s AckSample, rtExpired bool) {
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if s.Inflight <= b.bdpPackets(1.0) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCycle(now, s)
	case bbrProbeRTT:
		if s.Inflight <= bbrMinCwnd && b.probeRTTDoneAt == 0 {
			b.probeRTTDoneAt = now + bbrProbeRTTTime
		}
		if b.probeRTTDoneAt != 0 && now >= b.probeRTTDoneAt {
			b.rtPropAt = now // freshly validated
			b.exitProbeRTT(now)
		}
	}
	// ProbeRTT entry: the min-RTT estimate went stale.
	if b.state != bbrProbeRTT && rtExpired {
		b.enterProbeRTT(now)
	}
}

func (b *BBRAlg) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cycleIndex = 0
	if b.variant.RandomizeCycle {
		// Any phase except the 0.75 drain phase (index 1), per Linux.
		b.cycleIndex = b.rng.Intn(len(bbrGainCycle) - 1)
		if b.cycleIndex >= 1 {
			b.cycleIndex++
		}
		b.cycleIndex %= len(bbrGainCycle)
	}
	b.cycleStamp = now
}

func (b *BBRAlg) advanceCycle(now sim.Time, s AckSample) {
	elapsed := now - b.cycleStamp
	gain := bbrGainCycle[b.cycleIndex]
	advance := elapsed > b.rtProp
	// Leave the probing phase only once we actually filled gain×BDP (or
	// suffered loss); leave the draining phase as soon as inflight is
	// back at the BDP.
	if gain > 1 {
		advance = advance && (s.InRecovery || s.Inflight >= b.bdpPackets(gain))
	}
	if gain < 1 && s.Inflight <= b.bdpPackets(1) {
		advance = true
	}
	if advance {
		b.cycleIndex = (b.cycleIndex + 1) % len(bbrGainCycle)
		b.cycleStamp = now
	}
}

func (b *BBRAlg) enterProbeRTT(now sim.Time) {
	b.state = bbrProbeRTT
	b.priorCwnd = b.cwnd
	b.probeRTTDoneAt = 0
}

func (b *BBRAlg) exitProbeRTT(now sim.Time) {
	if b.filledPipe {
		b.enterProbeBW(now)
	} else {
		b.state = bbrStartup
	}
	if b.priorCwnd > b.cwnd {
		b.cwnd = b.priorCwnd
	}
}

func (b *BBRAlg) updateControls(now sim.Time, s AckSample) {
	switch b.state {
	case bbrStartup:
		b.pacingGain = b.variant.HighGain
		b.cwndGain = b.variant.HighGain
	case bbrDrain:
		b.pacingGain = b.variant.DrainGain
		b.cwndGain = b.variant.HighGain
		if b.variant.NoPacing {
			// Without a pacer the queue can only deflate through the
			// window: force inflight down to the estimated BDP.
			b.cwndGain = 1.0
		}
	case bbrProbeBW:
		b.pacingGain = bbrGainCycle[b.cycleIndex]
		b.cwndGain = b.variant.CwndGainProbeBW
	case bbrProbeRTT:
		b.pacingGain = 1
		b.cwndGain = 1
	}

	bw := b.BtlBw()
	if bw > 0 {
		b.pacingRate = int64(b.pacingGain * float64(bw))
	}

	if b.state == bbrProbeRTT {
		b.cwnd = bbrMinCwnd
		return
	}
	target := b.bdpPackets(b.cwndGain)
	if b.inRecovery && b.variant.RecoveryConservation {
		// Packet conservation: do not grow beyond inflight + newly acked
		// during the first recovery round.
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

// OnCongestionEvent implements Algorithm. BBRv1 famously does not reduce
// its rate on loss; only the optional recovery conservation applies.
func (b *BBRAlg) OnCongestionEvent(now sim.Time) {
	if !b.inRecovery {
		b.inRecovery = true
		b.priorCwnd = b.cwnd
	}
}

// OnPacketLoss implements Algorithm (no-op for BBRv1).
func (b *BBRAlg) OnPacketLoss(sim.Time, int) {}

// OnExitRecovery implements Algorithm.
func (b *BBRAlg) OnExitRecovery(sim.Time) {
	b.inRecovery = false
	if b.priorCwnd > b.cwnd {
		b.cwnd = b.priorCwnd
	}
}

// OnTimeout implements Algorithm.
func (b *BBRAlg) OnTimeout(sim.Time) {
	b.priorCwnd = b.cwnd
	b.cwnd = bbrMinCwnd
}

// CwndPackets implements Algorithm.
func (b *BBRAlg) CwndPackets() int {
	if b.cwnd < 1 {
		return 1
	}
	return b.cwnd
}

// PacingRate implements Algorithm.
func (b *BBRAlg) PacingRate() int64 {
	if b.variant.NoPacing {
		return 0
	}
	return b.pacingRate
}
