package cca

import "prudentia/internal/sim"

// Feedback is a periodic receiver report for rate-based media transport,
// modelled after WebRTC transport-wide congestion control feedback.
type Feedback struct {
	// Interval is the time covered by this report.
	Interval sim.Time
	// LossRate is the fraction of media packets lost in the interval.
	LossRate float64
	// QueueDelay is the mean one-way queueing delay observed.
	QueueDelay sim.Time
	// DelayGradient is the change in queueing delay across the interval,
	// in milliseconds of delay per second of time (the signal GCC's
	// overuse detector filters).
	DelayGradient float64
	// ReceiveRate is the goodput measured at the receiver in bits/sec.
	ReceiveRate int64
}

// GCCConfig parameterizes the controller. Google Meet runs stock GCC;
// Microsoft Teams' controller is proprietary ("Unknown" in Table 1), so
// the Teams model uses a GCC variant with different trade-offs — slower
// backoff and a higher overuse threshold — which reproduces the paper's
// Obs 5: Teams holds bitrate (resolution) longer at the cost of more
// freezes and lower FPS under contention.
type GCCConfig struct {
	// MinRate/MaxRate bound the target bitrate (bits/sec). Table 1 caps:
	// Meet 1.5 Mbps, Teams 2.6 Mbps.
	MinRate, MaxRate int64
	// InitialRate is the starting bitrate.
	InitialRate int64
	// OveruseThreshold is the delay-gradient threshold (ms/s) above which
	// the detector signals overuse.
	OveruseThreshold float64
	// QueueDelayCeiling additionally signals overuse when the absolute
	// queueing delay exceeds it (GCC implementations bound delay too).
	QueueDelayCeiling sim.Time
	// IncreaseFactor is the multiplicative increase per second when the
	// path is underused (GCC uses ≈1.08).
	IncreaseFactor float64
	// DecreaseFactor scales the measured receive rate on overuse (≈0.85).
	DecreaseFactor float64
	// LossDecreaseAt is the loss rate beyond which the loss-based branch
	// cuts the rate (GCC uses 0.10).
	LossDecreaseAt float64
}

// MeetGCC returns Google Meet's controller configuration.
func MeetGCC() GCCConfig {
	return GCCConfig{
		MinRate:           150_000,
		MaxRate:           1_500_000,
		InitialRate:       600_000,
		OveruseThreshold:  8,
		QueueDelayCeiling: 60 * sim.Millisecond,
		IncreaseFactor:    1.08,
		DecreaseFactor:    0.85,
		LossDecreaseAt:    0.10,
	}
}

// TeamsController returns the Teams-like hybrid variant.
func TeamsController() GCCConfig {
	return GCCConfig{
		MinRate:           200_000,
		MaxRate:           2_600_000,
		InitialRate:       800_000,
		OveruseThreshold:  20,                    // tolerates more delay growth
		QueueDelayCeiling: 150 * sim.Millisecond, // holds rate under deep queues
		IncreaseFactor:    1.12,                  // ramps back faster
		DecreaseFactor:    0.90,                  // cuts less on overuse
		LossDecreaseAt:    0.06,                  // but reacts to loss sooner
	}
}

// gccState is the overuse state machine state.
type gccState int

const (
	gccIncrease gccState = iota
	gccHold
	gccDecrease
)

// GCCAlg implements Google Congestion Control (Carlucci et al., "Analysis
// and Design of the Google Congestion Control for WebRTC"): a delay-based
// controller whose overuse detector compares the filtered queueing-delay
// gradient against a threshold, combined with a loss-based bound.
type GCCAlg struct {
	cfg   GCCConfig
	state gccState
	rate  int64
	// filtered delay gradient (simple EWMA stands in for the Kalman
	// filter in the reference implementation).
	gradient float64
	// lossEWMA smooths per-report loss rates; a single dropped frame in a
	// 100 ms report would otherwise read as ~30% loss and freeze the
	// rate ladder.
	lossEWMA float64
	// delayWindow holds recent queue-delay reports; its minimum is the
	// adaptive baseline. GCC's overuse detector adapts its threshold so
	// that a *standing* queue built by a competing buffer-filling flow is
	// treated as the new floor — without this the controller starves
	// against loss-based cross traffic (the well-known GCC threshold
	// adaptation), and the paper's §5.1 observation that RTC holds its
	// bitrate at 50 Mbps (suffering only delay) would not reproduce.
	delayWindow []sim.Time
}

// NewGCC returns a controller with the given configuration.
func NewGCC(cfg GCCConfig) *GCCAlg {
	return &GCCAlg{cfg: cfg, rate: cfg.InitialRate}
}

// TargetRate returns the current target media bitrate in bits/sec.
func (g *GCCAlg) TargetRate() int64 { return g.rate }

// OnFeedback ingests one receiver report.
func (g *GCCAlg) OnFeedback(now sim.Time, fb Feedback) {
	g.gradient = 0.6*g.gradient + 0.4*fb.DelayGradient

	// Adaptive baseline: the minimum queue delay over the recent window
	// is what the path imposes regardless of our rate; only delay we add
	// *above* it signals overuse.
	g.delayWindow = append(g.delayWindow, fb.QueueDelay)
	if len(g.delayWindow) > 50 {
		g.delayWindow = g.delayWindow[len(g.delayWindow)-50:]
	}
	baseline := g.delayWindow[0]
	for _, d := range g.delayWindow {
		if d < baseline {
			baseline = d
		}
	}
	excess := fb.QueueDelay - baseline

	// A rising gradient only signals overuse when a standing queue has
	// actually formed; otherwise serialization jitter on an idle link
	// (amplified by the per-second scaling) would trip the detector.
	const queueFloor = 5 * sim.Millisecond
	overused := (g.gradient > g.cfg.OveruseThreshold && excess > queueFloor) ||
		excess > g.cfg.QueueDelayCeiling
	underused := g.gradient < -g.cfg.OveruseThreshold

	// Delay-based branch.
	switch {
	case overused:
		g.state = gccDecrease
	case underused:
		g.state = gccHold
	default:
		g.state = gccIncrease
	}

	delayRate := g.rate
	switch g.state {
	case gccIncrease:
		per := fb.Interval.Seconds()
		factor := 1 + (g.cfg.IncreaseFactor-1)*per
		delayRate = int64(float64(g.rate) * factor)
	case gccDecrease:
		base := fb.ReceiveRate
		if base == 0 || base > g.rate {
			base = g.rate
		}
		delayRate = int64(g.cfg.DecreaseFactor * float64(base))
	}

	// Loss-based branch (RFC 8698-style): heavy loss cuts the rate,
	// moderate loss holds, low loss permits growth. Decisions use a
	// smoothed loss rate.
	g.lossEWMA = 0.7*g.lossEWMA + 0.3*fb.LossRate
	lossRate := g.rate
	switch {
	case g.lossEWMA > g.cfg.LossDecreaseAt:
		lossRate = int64(float64(g.rate) * (1 - 0.5*g.lossEWMA))
	case g.lossEWMA > 0.02:
		// hold
	default:
		lossRate = maxInt64(lossRate, delayRate)
	}

	g.rate = minInt64(delayRate, lossRate)
	if g.rate < g.cfg.MinRate {
		g.rate = g.cfg.MinRate
	}
	if g.rate > g.cfg.MaxRate {
		g.rate = g.cfg.MaxRate
	}
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
