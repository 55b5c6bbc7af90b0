package cca

import "prudentia/internal/sim"

// NewRenoAlg implements TCP NewReno congestion control (RFC 5681/6582):
// slow start to ssthresh, additive increase of one segment per RTT in
// congestion avoidance, and a halving of the window on each congestion
// event. Netflix's CDN servers run NewReno (Table 1), as does the
// iPerf (Reno) baseline.
type NewRenoAlg struct {
	cwnd     float64 // packets; fractional to express 1/cwnd growth
	ssthresh float64
}

// NewNewReno returns a NewReno controller.
func NewNewReno(cfg Config) *NewRenoAlg {
	cfg = cfg.withDefaults()
	return &NewRenoAlg{
		cwnd:     float64(cfg.InitialCwnd),
		ssthresh: float64(maxInt) / 4,
	}
}

// OnAck implements Algorithm: slow start below ssthresh, AIMD above.
func (n *NewRenoAlg) OnAck(_ sim.Time, s AckSample) {
	if s.InRecovery {
		return // window is frozen during fast recovery
	}
	for i := 0; i < s.AckedPackets; i++ {
		if n.cwnd < n.ssthresh {
			n.cwnd++
		} else {
			n.cwnd += 1 / n.cwnd
		}
	}
}

// OnCongestionEvent implements Algorithm: multiplicative decrease by 1/2.
func (n *NewRenoAlg) OnCongestionEvent(sim.Time) {
	n.ssthresh = n.cwnd / 2
	if n.ssthresh < 2 {
		n.ssthresh = 2
	}
	n.cwnd = n.ssthresh
}

// OnTimeout implements Algorithm: collapse to one segment.
func (n *NewRenoAlg) OnTimeout(sim.Time) {
	n.ssthresh = n.cwnd / 2
	if n.ssthresh < 2 {
		n.ssthresh = 2
	}
	n.cwnd = 1
}

// OnExitRecovery implements Algorithm.
func (n *NewRenoAlg) OnExitRecovery(sim.Time) {}

// CwndPackets implements Algorithm.
func (n *NewRenoAlg) CwndPackets() int {
	if n.cwnd < 1 {
		return 1
	}
	return int(n.cwnd)
}

// PacingRate implements Algorithm: NewReno is purely ACK-clocked.
func (n *NewRenoAlg) PacingRate() int64 { return 0 }
