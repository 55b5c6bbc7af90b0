package obs

import (
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// MmFShares computes the max-min fair allocation in bits/sec for two
// services sharing a bottleneck of rate linkBps, where caps holds each
// service's intrinsic application rate limit (0 = unlimited). Per §4:
// in most experiments each share is simply half the link, but a service
// whose cap is below half the link is allocated its cap, with the
// remainder going to its competitor (video services at 50 Mbps, RTC
// everywhere, OneDrive at >90 Mbps).
func MmFShares(linkBps int64, caps [2]int64) [2]float64 {
	half := float64(linkBps) / 2
	c0, c1 := float64(caps[0]), float64(caps[1])
	unlimited0 := caps[0] <= 0 || c0 >= half
	unlimited1 := caps[1] <= 0 || c1 >= half

	switch {
	case unlimited0 && unlimited1:
		return [2]float64{half, half}
	case !unlimited0 && unlimited1:
		rest := float64(linkBps) - c0
		return [2]float64{c0, rest}
	case unlimited0 && !unlimited1:
		rest := float64(linkBps) - c1
		return [2]float64{rest, c1}
	default:
		// Both app-limited: each gets its cap (the link is not the
		// constraint); shares are measured against the caps themselves.
		return [2]float64{c0, c1}
	}
}

// SharePercent converts a measured throughput into the percentage of the
// max-min fair share achieved, the paper's headline number (Fig 2).
func SharePercent(measuredBps, fairShareBps float64) float64 {
	if fairShareBps <= 0 {
		return 0
	}
	return 100 * measuredBps / fairShareBps
}

// LinkUtilization is the summed delivered throughput of both services
// divided by link capacity over the measurement window (Fig 11).
func LinkUtilization(deliveredBytes [2]int64, linkBps int64, window sim.Time) float64 {
	if linkBps <= 0 || window <= 0 {
		return 0
	}
	total := float64(deliveredBytes[0]+deliveredBytes[1]) * 8
	return total / (float64(linkBps) * window.Seconds())
}

// WindowStats is the difference of two bottleneck snapshots, i.e. what
// happened during the measurement window (the middle six minutes of a
// ten-minute trial, per §3.4).
type WindowStats struct {
	Arrived   int64
	Dropped   int64
	Delivered int64
	Bytes     int64
	QueueTime sim.Time
}

// Sub subtracts an earlier snapshot from a later one.
func Sub(later, earlier netem.ServiceStats) WindowStats {
	return WindowStats{
		Arrived:   later.ArrivedPackets - earlier.ArrivedPackets,
		Dropped:   later.DroppedPackets - earlier.DroppedPackets,
		Delivered: later.DeliveredPackets - earlier.DeliveredPackets,
		Bytes:     later.DeliveredBytes - earlier.DeliveredBytes,
		QueueTime: later.QueueDelaySum - earlier.QueueDelaySum,
	}
}

// LossRate returns the window's drop fraction.
func (w WindowStats) LossRate() float64 {
	if w.Arrived == 0 {
		return 0
	}
	return float64(w.Dropped) / float64(w.Arrived)
}

// MeanQueueDelay returns the window's average queueing delay.
func (w WindowStats) MeanQueueDelay() sim.Time {
	if w.Delivered == 0 {
		return 0
	}
	return w.QueueTime / sim.Time(w.Delivered)
}

// ThroughputMbps returns the window's delivered rate in Mbps.
func (w WindowStats) ThroughputMbps(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(w.Bytes) * 8 / window.Seconds() / 1e6
}

// RatePoint is one sample of a per-service throughput time series.
type RatePoint struct {
	At   sim.Time
	Mbps [2]float64
}

// RateSampler periodically samples per-slot delivered bytes at the
// bottleneck and converts deltas into Mbps, producing the series Fig 4
// and Fig 9's time plots are built from.
type RateSampler struct {
	Points []RatePoint

	eng   *sim.Engine
	bneck *netem.Bottleneck
	every sim.Time
	prev  [2]int64
}

// NewRateSampler starts sampling immediately with the given period.
func NewRateSampler(eng *sim.Engine, b *netem.Bottleneck, every sim.Time) *RateSampler {
	rs := &RateSampler{eng: eng, bneck: b, every: every}
	rs.prev = [2]int64{b.Stats(0).DeliveredBytes, b.Stats(1).DeliveredBytes}
	eng.After(every, rs.tick)
	return rs
}

func (rs *RateSampler) tick(now sim.Time) {
	cur := [2]int64{rs.bneck.Stats(0).DeliveredBytes, rs.bneck.Stats(1).DeliveredBytes}
	p := RatePoint{At: now}
	for i := range cur {
		p.Mbps[i] = float64(cur[i]-rs.prev[i]) * 8 / rs.every.Seconds() / 1e6
	}
	rs.prev = cur
	rs.Points = append(rs.Points, p)
	rs.eng.After(rs.every, rs.tick)
}
