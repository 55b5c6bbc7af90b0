package cca

import (
	"fmt"
	"testing"

	"prudentia/internal/sim"
)

// sliceFilter is the filter as it was before maxFilter: append every
// accepted sample, evict the expired prefix on append, scan for the
// maximum. It is the oracle that defines what maxFilter must answer.
type sliceFilter []bwSample

func (f sliceFilter) Max() int64 {
	var max int64
	for _, s := range f {
		if s.bw > max {
			max = s.bw
		}
	}
	return max
}

func (f *sliceFilter) Add(round, bw, minRound int64) {
	*f = append(*f, bwSample{round: round, bw: bw})
	cut := 0
	for cut < len(*f) && (*f)[cut].round < minRound {
		cut++
	}
	*f = (*f)[cut:]
}

// bwStream yields delivery-rate samples that exercise the filter's
// corners: rounds that repeat, advance by one, or jump past the whole
// window; a handful of distinct bandwidths so equal values are common;
// slow decay so a stale maximum lingers; app-limited stretches whose
// samples are rejected (no append, hence no expiry) or accepted because
// they beat the estimate.
type bwStream struct {
	rng        *sim.RNG
	round      int64
	level      int64
	appLimited int // samples left in the current app-limited stretch
}

func (s *bwStream) next() (round, bw int64, appLimited bool) {
	switch r := s.rng.Intn(100); {
	case r < 70: // same round
	case r < 97:
		s.round++
	default:
		s.round += bbrBwWindowRounds + 1 + int64(s.rng.Intn(5))
	}
	if s.rng.Intn(50) == 0 {
		s.level = int64(1 + s.rng.Intn(8))
	}
	if s.appLimited == 0 && s.rng.Intn(40) == 0 {
		s.appLimited = 1 + s.rng.Intn(60)
	}
	bw = 1000 * (s.level*4 - int64(s.rng.Intn(4)))
	if s.rng.Intn(25) == 0 {
		bw = 0 // invalid sample
	}
	if s.appLimited > 0 {
		s.appLimited--
		return s.round, bw, true
	}
	return s.round, bw, false
}

// TestMaxFilterMatchesSliceScan compares the deque with the slice oracle
// after every sample, under both controllers' admission rules (BBRv1
// rejects an app-limited sample that does not beat the estimate; BBRv3
// states the same condition as an acceptance).
func TestMaxFilterMatchesSliceScan(t *testing.T) {
	admit := map[string]func(bw, max int64, appLimited bool) bool{
		"bbr1": func(bw, max int64, appLimited bool) bool {
			if bw <= 0 {
				return false
			}
			if appLimited && bw <= max {
				return false
			}
			return true
		},
		"bbr3": func(bw, max int64, appLimited bool) bool {
			return bw > 0 && (!appLimited || bw > max)
		},
	}
	for name, ok := range admit {
		for seed := uint64(1); seed <= 50; seed++ {
			st := &bwStream{rng: sim.NewRNG(seed), level: 4}
			var got maxFilter
			var want sliceFilter
			for i := 0; i < 5000; i++ {
				round, bw, appLimited := st.next()
				if ok(bw, want.Max(), appLimited) {
					got.Add(round, bw, round-bbrBwWindowRounds)
					want.Add(round, bw, round-bbrBwWindowRounds)
				}
				if got.Max() != want.Max() {
					t.Fatalf("%s seed %d sample %d (round %d bw %d app-limited %v): Max() = %d, slice scan %d",
						name, seed, i, round, bw, appLimited, got.Max(), want.Max())
				}
				if got.q.Len() > len(want) {
					t.Fatalf("%s seed %d sample %d: deque holds %d samples, the window only %d", name, seed, i, got.q.Len(), len(want))
				}
			}
		}
	}
}

// TestBBREstimateMatchesSliceScan runs the same comparison through the
// controllers themselves: the oracle mirrors the round counter and the
// admission rule from outside, and BtlBw / maxBw must agree with it after
// every OnAck.
func TestBBREstimateMatchesSliceScan(t *testing.T) {
	type model interface {
		Algorithm
		estimate() (bw, round, nextRoundDelivery int64)
	}
	algs := map[string]func() model{
		"bbr1": func() model { return bbr1Model{NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))} },
		"bbr3": func() model { return bbr3Model{NewBBRv3(Config{}, sim.NewRNG(1))} },
	}
	for name, mk := range algs {
		for seed := uint64(1); seed <= 20; seed++ {
			alg := mk()
			st := &bwStream{rng: sim.NewRNG(seed), level: 4}
			var want sliceFilter
			var delivered int64
			now := sim.Time(0)
			for i := 0; i < 5000; i++ {
				_, bw, appLimited := st.next()
				now += sim.Millisecond
				delivered += 1500
				s := AckSample{
					RTT:             50 * sim.Millisecond,
					AckedPackets:    1,
					AckedBytes:      1500,
					TotalDelivered:  delivered,
					PacketDelivered: delivered - int64(1+st.rng.Intn(12))*1500,
					DeliveryRate:    bw,
					RateAppLimited:  appLimited,
					Inflight:        10,
				}
				_, round, nextRound := alg.estimate()
				if s.PacketDelivered >= nextRound {
					round++
				}
				if bw > 0 && !(appLimited && bw <= want.Max()) {
					want.Add(round, bw, round-bbrBwWindowRounds)
				}
				alg.OnAck(now, s)
				if got, _, _ := alg.estimate(); got != want.Max() {
					t.Fatalf("%s seed %d ack %d: estimate %d, slice scan %d", name, seed, i, got, want.Max())
				}
			}
		}
	}
}

type bbr1Model struct{ *BBRAlg }

func (m bbr1Model) estimate() (int64, int64, int64) { return m.BtlBw(), m.round, m.nextRoundDelivery }

type bbr3Model struct{ *BBRv3Alg }

func (m bbr3Model) estimate() (int64, int64, int64) { return m.maxBw(), m.round, m.nextRoundDelivery }

// fullWindowAcks returns a generator of ACK samples that keeps the filter
// at its worst-case occupancy: perRound samples per round whose delivery
// rate falls strictly for a whole window (so the deque retains every one
// of them, as the slice did) before jumping back up.
func fullWindowAcks(perRound int) func() (sim.Time, AckSample) {
	window := int64(perRound * bbrBwWindowRounds)
	var k int64
	return func() (sim.Time, AckSample) {
		k++
		return sim.Time(k) * sim.Millisecond, AckSample{
			RTT:             50 * sim.Millisecond,
			AckedPackets:    1,
			AckedBytes:      1500,
			TotalDelivered:  k * 1500,
			PacketDelivered: (k - int64(perRound)) * 1500,
			DeliveryRate:    1_000_000 + window - k%window,
			Inflight:        perRound,
		}
	}
}

// TestBBROnAckZeroAllocAtFullWindow holds OnAck to 0 allocs/op once the
// filter's ring has reached the size of a full window.
func TestBBROnAckZeroAllocAtFullWindow(t *testing.T) {
	algs := map[string]Algorithm{
		"bbr1": NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1)),
		"bbr3": NewBBRv3(Config{}, sim.NewRNG(1)),
	}
	for name, alg := range algs {
		next := fullWindowAcks(64)
		for i := 0; i < 4*64*bbrBwWindowRounds; i++ {
			alg.OnAck(next())
		}
		if n := testing.AllocsPerRun(2000, func() { alg.OnAck(next()) }); n != 0 {
			t.Errorf("%s: OnAck allocates %v times per ACK at a full window", name, n)
		}
	}
}

// BenchmarkBBROnAckFullWindow measures OnAck with the bandwidth window
// full, at two window sizes an order of magnitude apart (40 samples is a
// slow flow at 8 Mbps, 2560 a bulk flow at 50 Mbps). The estimate is read
// up to five times per ACK; with the slice scan each read cost one pass
// over the window, so ns/op grew with it. It must not.
func BenchmarkBBROnAckFullWindow(b *testing.B) {
	algs := []struct {
		name string
		mk   func() Algorithm
	}{
		{"bbr1", func() Algorithm { return NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1)) }},
		{"bbr3", func() Algorithm { return NewBBRv3(Config{}, sim.NewRNG(1)) }},
	}
	for _, a := range algs {
		for _, perRound := range []int{4, 256} {
			b.Run(fmt.Sprintf("%s/window=%d", a.name, perRound*bbrBwWindowRounds), func(b *testing.B) {
				alg := a.mk()
				next := fullWindowAcks(perRound)
				for i := 0; i < 4*perRound*bbrBwWindowRounds; i++ {
					alg.OnAck(next())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					alg.OnAck(next())
				}
			})
		}
	}
}
