package services

import (
	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// rtcResolutionStep maps a media bitrate to the video height the encoder
// produces at that rate.
type rtcResolutionStep struct {
	minRate int64
	height  int
}

// RTC models the real-time-communication services (Google Meet,
// Microsoft Teams): an unreliable, rate-controlled media stream. The
// sender encodes frames at a fixed frame rate whose size tracks the
// controller's target bitrate; the receiver measures loss, one-way
// queueing delay, and delay gradient, and returns periodic feedback that
// drives the controller (GCC for Meet, a proprietary-flavoured hybrid for
// Teams). QoE metrics follow Table 2: resolution, average FPS, freezes
// per minute (WebRTC definition), and the fraction of packets whose RTT
// exceeds the ITU 190 ms bound.
type RTC struct {
	ServiceName string
	// GCC configures the rate controller; its MaxRate is the service's
	// Table 1 cap.
	GCC         cca.GCCConfig
	Resolutions []rtcResolutionStep // descending by minRate
}

// Both RTC services encode rtcFrameRate frames a second in packets of
// rtcPacketBytes, make every rtcKeyFrameEvery-th frame a key frame twice
// the size, and send receiver feedback every rtcFeedbackEvery.
const (
	rtcFrameRate     = 30
	rtcPacketBytes   = 1200
	rtcKeyFrameEvery = 90
	rtcFeedbackEvery = 100 * sim.Millisecond
)

// NewGoogleMeet returns the Google Meet model (GCC, ≤1.5 Mbps).
func NewGoogleMeet() *RTC {
	return &RTC{
		ServiceName: "Google Meet",
		GCC:         cca.MeetGCC(),
		Resolutions: []rtcResolutionStep{
			{1_200_000, 720}, {600_000, 480}, {350_000, 360}, {0, 240},
		},
	}
}

// NewMicrosoftTeams returns the Microsoft Teams model (hybrid controller,
// ≤2.6 Mbps). Teams encodes up to 1080p and, per Obs 5, holds bitrate
// and resolution at the cost of FPS and freezes under contention.
func NewMicrosoftTeams() *RTC {
	return &RTC{
		ServiceName: "Microsoft Teams",
		GCC:         cca.TeamsController(),
		Resolutions: []rtcResolutionStep{
			{2_200_000, 1080}, {1_200_000, 720}, {600_000, 480}, {350_000, 360}, {0, 240},
		},
	}
}

// Name implements Service.
func (s *RTC) Name() string { return s.ServiceName }

// Category implements Service.
func (s *RTC) Category() Category { return CategoryRTC }

// MaxRateBps implements Service.
func (s *RTC) MaxRateBps() int64 { return s.GCC.MaxRate }

// FlowCount implements Service.
func (s *RTC) FlowCount() int { return 1 }

// Start implements Service.
func (s *RTC) Start(env *Env) Instance {
	inst := &rtcInstance{
		env:        env,
		svc:        s,
		controller: cca.NewGCC(s.GCC),
		frames:     make(map[int64]*frameAssembly),
		resTime:    make(map[int]sim.Time),
		minOWD:     -1,
	}
	inst.flowID = env.TB.RegisterFlow(env.Slot, inst.onMediaPacket, nil)
	inst.startAt = env.Eng.Now()
	// Jitter the start so paired RTC services do not phase-lock.
	env.Eng.After(env.RNG.Duration(sim.Second/rtcFrameRate), inst.sendFrame)
	env.Eng.After(rtcFeedbackEvery, inst.feedbackTick)
	inst.lastResAt = env.Eng.Now()
	return inst
}

// frameAssembly tracks reception of one frame.
type frameAssembly struct {
	expect   int
	got      int
	complete bool
}

type rtcInstance struct {
	env        *Env
	svc        *RTC
	controller *cca.GCCAlg
	flowID     int
	stopped    bool

	// Sender state.
	nextSeq    int64
	frameID    int64
	frameCount int

	// Receiver state.
	frames        map[int64]*frameAssembly
	recvPkts      int64
	recvBytes     int64
	highDelayPkts int64
	minOWD        sim.Time // -1 until first packet

	// Per-feedback-interval accumulators. Loss is computed from sequence
	// gaps ((maxSeq - prevMaxSeq) - received), not from a sent/received
	// balance, so packets still in flight at the interval boundary are
	// not miscounted as lost.
	intRecv       int64
	intRecvBytes  int64
	intOWDSum     sim.Time
	intOWDCount   int64
	prevMeanOWD   sim.Time
	prevMeanValid bool
	maxSeqSeen    int64
	prevMaxSeq    int64

	// Frame rendering / freeze metrics.
	rendered      int
	lastRenderAt  sim.Time
	renderGapEWMA float64 // seconds
	freezes       int

	// Resolution accounting.
	lastRes   int
	lastResAt sim.Time
	resTime   map[int]sim.Time

	startAt sim.Time
}

// resolutionFor maps the current rate to an encoded height.
func (r *rtcInstance) resolutionFor(rate int64) int {
	for _, step := range r.svc.Resolutions {
		if rate >= step.minRate {
			return step.height
		}
	}
	return r.svc.Resolutions[len(r.svc.Resolutions)-1].height
}

// sendFrame encodes and transmits one frame at the controller's rate.
func (r *rtcInstance) sendFrame(now sim.Time) {
	if r.stopped {
		return
	}
	rate := r.controller.TargetRate()
	res := r.resolutionFor(rate)
	if res != r.lastRes {
		if r.lastRes != 0 {
			r.resTime[r.lastRes] += now - r.lastResAt
		}
		r.lastRes = res
		r.lastResAt = now
	}

	frameBytes := rate / (8 * rtcFrameRate)
	r.frameCount++
	if r.frameCount%rtcKeyFrameEvery == 0 {
		frameBytes *= 2
	}
	if frameBytes < 200 {
		frameBytes = 200
	}
	pkts := int((frameBytes + rtcPacketBytes - 1) / rtcPacketBytes)
	frame := r.frameID
	r.frameID++
	for i := 0; i < pkts; i++ {
		p := r.env.TB.AllocPacket()
		p.FlowID = r.flowID
		p.Service = r.env.Slot
		p.Size = rtcPacketBytes
		p.Seq = r.nextSeq
		p.SentAt = now
		p.Frame = frame
		p.FramePackets = pkts
		r.nextSeq++
		r.env.TB.SendData(now, p)
	}
	r.env.Eng.After(sim.Second/rtcFrameRate, r.sendFrame)
}

// onMediaPacket is the receiver: delay accounting, frame reassembly,
// freeze detection.
func (r *rtcInstance) onMediaPacket(now sim.Time, p *netem.Packet) {
	if r.stopped {
		return
	}
	r.recvPkts++
	r.intRecv++
	r.recvBytes += int64(p.Size)
	r.intRecvBytes += int64(p.Size)
	if p.Seq+1 > r.maxSeqSeen {
		r.maxSeqSeen = p.Seq + 1
	}

	owd := now - p.SentAt
	if r.minOWD < 0 || owd < r.minOWD {
		r.minOWD = owd
	}
	r.intOWDSum += owd
	r.intOWDCount++
	// RTT estimate: one-way delay plus the (uncongested) return path.
	rtt := owd + r.env.TB.BaseRTT()/2
	if rtt > 190*sim.Millisecond {
		r.highDelayPkts++
	}

	fa := r.frames[p.Frame]
	if fa == nil {
		fa = &frameAssembly{expect: p.FramePackets}
		r.frames[p.Frame] = fa
	}
	fa.got++
	if !fa.complete && fa.got >= fa.expect {
		fa.complete = true
		r.renderFrame(now)
		delete(r.frames, p.Frame)
	}
	// Garbage-collect stale incomplete frames (lost packets).
	if len(r.frames) > 256 {
		for id := range r.frames {
			if id < p.Frame-128 {
				delete(r.frames, id)
			}
		}
	}
}

// renderFrame updates FPS and freeze statistics per the WebRTC stats
// definition (gap > max(3δ, δ+150ms), δ = average inter-frame interval).
func (r *rtcInstance) renderFrame(now sim.Time) {
	if r.rendered > 0 {
		gap := (now - r.lastRenderAt).Seconds()
		if r.renderGapEWMA > 0 {
			limit := 3 * r.renderGapEWMA
			if alt := r.renderGapEWMA + 0.150; alt > limit {
				limit = alt
			}
			if gap > limit {
				r.freezes++
			}
		}
		r.renderGapEWMA = 0.9*r.renderGapEWMA + 0.1*gap
	}
	r.rendered++
	r.lastRenderAt = now
}

// feedbackTick assembles the receiver report and feeds the controller.
func (r *rtcInstance) feedbackTick(now sim.Time) {
	if r.stopped {
		return
	}
	fb := cca.Feedback{Interval: rtcFeedbackEvery}
	if expected := r.maxSeqSeen - r.prevMaxSeq; expected > 0 {
		lost := expected - r.intRecv
		if lost < 0 {
			lost = 0
		}
		fb.LossRate = float64(lost) / float64(expected)
	}
	r.prevMaxSeq = r.maxSeqSeen
	var meanOWD sim.Time
	if r.intOWDCount > 0 {
		meanOWD = r.intOWDSum / sim.Time(r.intOWDCount)
		if r.minOWD > 0 {
			fb.QueueDelay = meanOWD - r.minOWD
		}
	}
	if r.prevMeanValid && r.intOWDCount > 0 {
		deltaMs := (meanOWD - r.prevMeanOWD).Seconds() * 1000
		fb.DelayGradient = deltaMs / rtcFeedbackEvery.Seconds()
	}
	if r.intOWDCount > 0 {
		r.prevMeanOWD = meanOWD
		r.prevMeanValid = true
	}
	fb.ReceiveRate = r.intRecvBytes * 8 * int64(sim.Second) / int64(rtcFeedbackEvery)

	r.controller.OnFeedback(now, fb)

	r.intRecv, r.intRecvBytes = 0, 0
	r.intOWDSum, r.intOWDCount = 0, 0
	r.env.Eng.After(rtcFeedbackEvery, r.feedbackTick)
}

func (r *rtcInstance) Stop() {
	if r.lastRes != 0 {
		r.resTime[r.lastRes] += r.env.Eng.Now() - r.lastResAt
	}
	r.stopped = true
}

func (r *rtcInstance) Stats() Stats {
	now := r.env.Eng.Now()
	elapsed := (now - r.startAt).Seconds()
	st := RTCStats{}
	if elapsed > 0 {
		st.AvgFPS = float64(r.rendered) / elapsed
		st.FreezesPerMinute = float64(r.freezes) / (elapsed / 60)
		st.MeanRateBps = int64(float64(r.recvBytes) * 8 / elapsed)
	}
	if r.recvPkts > 0 {
		st.HighDelayFrac = float64(r.highDelayPkts) / float64(r.recvPkts)
	}
	// Dominant resolution by time; include the still-open segment.
	resTime := make(map[int]sim.Time, len(r.resTime))
	for k, v := range r.resTime {
		resTime[k] = v
	}
	if !r.stopped && r.lastRes != 0 {
		resTime[r.lastRes] += now - r.lastResAt
	}
	var best sim.Time
	for res, t := range resTime {
		if t > best || t == best && t > 0 && res > st.Resolution {
			best = t
			st.Resolution = res
		}
	}
	return Stats{RTC: &st}
}
