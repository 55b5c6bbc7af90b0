package services

import (
	"prudentia/internal/abr"
	"prudentia/internal/sim"
	"prudentia/internal/transport"
)

// Video models the on-demand streaming services (YouTube, Netflix,
// Vimeo): a DASH-style player that keeps a playback buffer topped up by
// fetching fixed-duration chunks whose bitrate an ABR policy chooses,
// over one or more transport connections (Table 1: YouTube 1, Vimeo 2,
// Netflix 4). The resulting traffic is application-limited on fast links
// (the §4 observation that video MmF shares are their bitrate caps at
// 50 Mbps) and duty-cycled even when saturated, which is what makes these
// services comparatively sensitive.
type Video struct {
	ServiceName string
	Factory     AlgFactory
	Ladder      abr.Ladder
	// NewPolicy builds a fresh ABR policy per instance.
	NewPolicy func() abr.Policy
	// Flows is the number of parallel connections; each chunk is split
	// into equal byte ranges fetched concurrently across them.
	Flows int
	// ChunkDuration is the media length of one chunk.
	ChunkDuration sim.Time
	// TargetBufferSec is the playback buffer the player tries to hold.
	TargetBufferSec float64
	// StartupChunks is how many chunks must buffer before playback starts
	// (and resumes after a stall).
	StartupChunks int
	// PipelineDepth is how many chunk requests may be outstanding at
	// once while the buffer is below target (real players keep the
	// connection busy by requesting ahead; default 2).
	PipelineDepth int
}

// NewYouTube returns the YouTube model: single QUIC/BBR connection,
// stability-seeking ABR, 13 Mbps top rung.
func NewYouTube(f AlgFactory) *Video {
	return &Video{
		ServiceName:     "YouTube",
		Factory:         f,
		Ladder:          abr.YouTubeLadder(),
		NewPolicy:       func() abr.Policy { return abr.NewStabilityPolicy() },
		Flows:           1,
		ChunkDuration:   5 * sim.Second,
		TargetBufferSec: 30,
		StartupChunks:   2,
	}
}

// NewNetflix returns the Netflix model: four NewReno connections,
// throughput-greedy ABR, 8 Mbps top rung.
func NewNetflix(f AlgFactory) *Video {
	return &Video{
		ServiceName:     "Netflix",
		Factory:         f,
		Ladder:          abr.NetflixLadder(),
		NewPolicy:       func() abr.Policy { return abr.NewThroughputPolicy() },
		Flows:           4,
		ChunkDuration:   4 * sim.Second,
		TargetBufferSec: 40,
		StartupChunks:   2,
	}
}

// NewVimeo returns the Vimeo model: two BBR connections, conservative
// ABR, 14 Mbps top rung.
func NewVimeo(f AlgFactory) *Video {
	return &Video{
		ServiceName:     "Vimeo",
		Factory:         f,
		Ladder:          abr.VimeoLadder(),
		NewPolicy:       func() abr.Policy { return abr.NewConservativePolicy() },
		Flows:           2,
		ChunkDuration:   4 * sim.Second,
		TargetBufferSec: 30,
		StartupChunks:   2,
	}
}

// Name implements Service.
func (s *Video) Name() string { return s.ServiceName }

// Category implements Service.
func (s *Video) Category() Category { return CategoryVideo }

// MaxRateBps implements Service: the top ladder rung.
func (s *Video) MaxRateBps() int64 { return s.Ladder.Max() }

// FlowCount implements Service.
func (s *Video) FlowCount() int { return s.Flows }

// Start implements Service.
func (s *Video) Start(env *Env) Instance {
	depth := s.PipelineDepth
	if depth == 0 {
		depth = 2
	}
	inst := &videoInstance{
		env:       env,
		svc:       s,
		depth:     depth,
		policy:    s.NewPolicy(),
		est:       abr.NewEstimator(5),
		lastRung:  -1,
		renderCap: env.Client.RenderCapBps(),
		resTime:   make(map[int]sim.Time),
	}
	inst.refillTimer = env.Eng.NewTimer()
	inst.fillEv = inst.fill
	for i := 0; i < s.Flows; i++ {
		alg := s.Factory(env.RNG.Split())
		inst.flows = append(inst.flows,
			transport.NewFlow(env.TB, env.Slot, alg, flowOptions(alg)))
	}
	inst.lastTick = env.Eng.Now()
	inst.fill(env.Eng.Now())
	return inst
}

// chunkRequest tracks one outstanding chunk download.
type chunkRequest struct {
	start        sim.Time
	bytes        int64
	rung         int
	pendingParts int
}

type videoInstance struct {
	env    *Env
	svc    *Video
	flows  []*transport.Flow
	policy abr.Policy
	est    *abr.Estimator
	depth  int

	stopped   bool
	renderCap int64

	// Player state.
	bufferSec float64
	playing   bool
	lastTick  sim.Time
	lastRung  int

	// Outstanding chunk downloads, oldest first (per-flow FIFO delivery
	// guarantees chunks complete in request order).
	chunks []*chunkRequest

	// refillTimer wakes the fetch loop when the buffer drains to target;
	// one timer and one bound callback per instance, re-armed with Reset.
	refillTimer *sim.Timer
	fillEv      sim.Event
	// lastDoneAt is when the most recent chunk completed (estimator
	// window start for pipelined requests).
	lastDoneAt sim.Time

	// Rebuffer tracking.
	stallStart sim.Time
	stalled    bool

	stats   VideoStats
	resTime map[int]sim.Time // resolution -> playing time at it
	byteSum int64
	brSum   float64 // Σ bitrate×bytes for byte-weighted mean
}

// advancePlayback drains the playback buffer up to now, recording stalls.
func (v *videoInstance) advancePlayback(now sim.Time) {
	elapsed := (now - v.lastTick).Seconds()
	v.lastTick = now
	if !v.playing {
		return
	}
	res := abr.ResolutionForRung(v.svc.Ladder, v.lastRungOrZero())
	if elapsed >= v.bufferSec {
		// Buffer ran dry somewhere in this window: played bufferSec then
		// stalled for the rest.
		played := v.bufferSec
		v.resTime[res] += sim.Time(played * float64(sim.Second))
		v.bufferSec = 0
		v.playing = false
		v.stalled = true
		v.stallStart = now - sim.Time((elapsed-played)*float64(sim.Second))
		v.stats.RebufferEvents++
		return
	}
	v.bufferSec -= elapsed
	v.resTime[res] += sim.Time(elapsed * float64(sim.Second))
}

func (v *videoInstance) lastRungOrZero() int {
	if v.lastRung < 0 {
		return 0
	}
	return v.lastRung
}

// fill is the fetch loop: it keeps up to depth chunk requests
// outstanding while the buffer (including requested-but-undelivered
// chunks) is below the target, and otherwise schedules a wakeup for when
// playback drains the buffer back to the target.
func (v *videoInstance) fill(now sim.Time) {
	if v.stopped {
		return
	}
	v.advancePlayback(now)
	chunkSec := v.svc.ChunkDuration.Seconds()
	for len(v.chunks) < v.depth {
		buffered := v.bufferSec + chunkSec*float64(len(v.chunks))
		if buffered >= v.svc.TargetBufferSec {
			// Wake when playback drains back to the target (floored so a
			// buffer sitting exactly at target cannot spin the loop).
			wait := sim.Time((buffered - v.svc.TargetBufferSec) * float64(sim.Second))
			if min := 100 * sim.Millisecond; wait < min {
				wait = min
			}
			if !v.refillTimer.Pending() {
				v.refillTimer.Reset(wait, v.fillEv)
			}
			return
		}
		v.requestChunk(now)
	}
}

// requestChunk picks a rung and fans one chunk out across the flows.
func (v *videoInstance) requestChunk(now sim.Time) {
	st := abr.State{
		Ladder:          v.svc.Ladder,
		BufferSec:       v.bufferSec,
		TargetBufferSec: v.svc.TargetBufferSec,
		ThroughputBps:   v.est.Estimate(),
		LastRung:        v.lastRung,
		RenderCap:       v.renderCap,
	}
	rung := v.policy.NextRung(now, st)
	if v.lastRung >= 0 && rung != v.lastRung {
		v.stats.Switches++
	}
	v.lastRung = rung

	bitrate := v.svc.Ladder[rung]
	req := &chunkRequest{
		start:        now,
		bytes:        bitrate * int64(v.svc.ChunkDuration/sim.Second) / 8,
		rung:         rung,
		pendingParts: len(v.flows),
	}
	v.chunks = append(v.chunks, req)
	part := req.bytes / int64(len(v.flows))

	// The request travels client→server before data flows back.
	reqDelay := v.env.TB.BaseRTT() / 2
	v.env.Eng.After(reqDelay, func(sim.Time) {
		if v.stopped {
			return
		}
		for _, f := range v.flows {
			f.Write(part, func(at sim.Time) { v.partDone(at, req) })
		}
	})
}

func (v *videoInstance) partDone(now sim.Time, req *chunkRequest) {
	req.pendingParts--
	if req.pendingParts > 0 || v.stopped {
		return
	}
	v.chunkDone(now, req)
}

func (v *videoInstance) chunkDone(now sim.Time, req *chunkRequest) {
	v.advancePlayback(now)
	// Pop the completed request (FIFO order per flow guarantees it is
	// the oldest).
	for i, c := range v.chunks {
		if c == req {
			v.chunks = append(v.chunks[:i], v.chunks[i+1:]...)
			break
		}
	}
	// Pipelined requests queue behind the previous chunk on the same
	// flows, so the effective download window starts when the previous
	// chunk finished, not when the request was issued.
	start := req.start
	if v.lastDoneAt > start {
		start = v.lastDoneAt
	}
	v.lastDoneAt = now
	if dur := now - start; dur > 0 {
		v.est.Add(req.bytes * 8 * int64(sim.Second) / int64(dur))
	}
	v.stats.ChunksFetched++
	v.byteSum += req.bytes
	v.brSum += float64(v.svc.Ladder[req.rung]) * float64(req.bytes)
	v.bufferSec += v.svc.ChunkDuration.Seconds()

	// Start or resume playback once enough is buffered.
	startLevel := float64(v.svc.StartupChunks) * v.svc.ChunkDuration.Seconds()
	if !v.playing && v.bufferSec >= startLevel {
		v.playing = true
		if v.stalled {
			v.stalled = false
			v.stats.RebufferTime += now - v.stallStart
		}
	}
	v.fill(now)
}

func (v *videoInstance) Stop() {
	v.advancePlayback(v.env.Eng.Now())
	if v.stalled {
		v.stats.RebufferTime += v.env.Eng.Now() - v.stallStart
		v.stalled = false
	}
	v.stopped = true
	for _, f := range v.flows {
		f.Close()
	}
}

func (v *videoInstance) Stats() Stats {
	st := v.stats
	if v.byteSum > 0 {
		st.MeanBitrateBps = int64(v.brSum / float64(v.byteSum))
	}
	var best sim.Time
	for res, t := range v.resTime {
		if t > best {
			best = t
			st.DominantResolution = res
		}
	}
	return Stats{Video: &st}
}
