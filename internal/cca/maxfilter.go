package cca

import "prudentia/internal/sim"

// bwSample is one entry of the windowed-max bandwidth filter.
type bwSample struct {
	round int64
	bw    int64 // bytes/sec
}

// maxFilter is the exact windowed maximum behind BBR's bottleneck
// bandwidth estimate: a monotonic deque. Samples are kept
// in arrival order with strictly decreasing bandwidth, so the front is the
// maximum and Max is O(1); a new sample first drops every older sample it
// dominates (those could never be the maximum again) and then the front
// samples that left the window.
//
// It answers exactly what scanning the full sample list would: expiry
// happens only inside Add, so a window that receives no accepted samples
// (an app-limited stretch) keeps its stale maximum, as the list did. This
// is not Linux's three-sample win_minmax, which is an approximation.
type maxFilter struct {
	q sim.Ring[bwSample]
}

// Max returns the largest bandwidth in the filter, 0 when empty.
func (f *maxFilter) Max() int64 {
	if f.q.Len() == 0 {
		return 0
	}
	return f.q.Front().bw
}

// Add records a sample taken in the given round and expires samples from
// rounds before minRound.
func (f *maxFilter) Add(round, bw, minRound int64) {
	for f.q.Len() > 0 && f.q.Back().bw <= bw {
		f.q.PopBack()
	}
	f.q.PushBack(bwSample{round: round, bw: bw})
	for f.q.Front().round < minRound {
		f.q.PopFront()
	}
}
