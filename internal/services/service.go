// Package services implements behavioural models of the twelve Internet
// services (plus iPerf baselines) in the Prudentia catalog, Table 1 of
// the paper. Each model reproduces the traffic-shaping mechanisms the
// paper identifies as driving fairness outcomes: congestion control
// algorithm, number of concurrent flows, application rate caps, ABR
// control loops, chunk batching, and request scheduling. Live endpoints
// are replaced by these models per the substitution table in DESIGN.md.
package services

import (
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// Category classifies catalog entries, mirroring Table 1.
type Category string

const (
	CategoryVideo    Category = "video"
	CategoryFile     Category = "file-transfer"
	CategoryRTC      Category = "rtc"
	CategoryWeb      Category = "web"
	CategoryBaseline Category = "baseline"
)

// Env is everything a service instance needs to run in one experiment.
type Env struct {
	Eng *sim.Engine
	TB  *netem.Testbed
	// Slot is the experiment slot (0 incumbent, 1 contender) the
	// service's flows are attributed to at the bottleneck.
	Slot int
	// RNG is the instance's private random stream.
	RNG *sim.RNG
	// RenderCapBps is the highest video bitrate the client can render
	// (0 = no cap). §3.3 of the paper found that headless or GPU-less
	// clients make players request lower bitrates, so the testbed renders
	// at full fidelity; tests set a cap to reproduce the pitfall.
	RenderCapBps int64
}

// Service is a catalog entry: a factory for running instances.
type Service interface {
	// Name is the catalog name (e.g. "YouTube", "iPerf (BBR)").
	Name() string
	// Category mirrors Table 1's grouping.
	Category() Category
	// MaxRateBps is the service's intrinsic application-level rate cap
	// in bits/sec (0 = unlimited). Used for app-limit-aware max-min fair
	// share computation (§4: video services at 50 Mbps are
	// application-limited, so their MmF share is their cap).
	MaxRateBps() int64
	// FlowCount is the nominal number of concurrent workload flows
	// (Table 1's "# Flows" column).
	FlowCount() int
	// Start launches the workload; the instance runs until Stop.
	Start(env *Env) Instance
}

// Instance is a running service workload.
type Instance interface {
	// Stop halts all of the instance's transmission.
	Stop()
	// Stats returns QoE metrics accumulated so far. Sections not
	// applicable to the service are nil.
	Stats() Stats
}

// Stats carries per-category QoE metrics (§5 "Beyond Throughput").
type Stats struct {
	Video *VideoStats
	RTC   *RTCStats
	Web   *WebStats
	File  *FileStats
}

// VideoStats reports on-demand video playback quality.
type VideoStats struct {
	// ChunksFetched is the number of media chunks downloaded.
	ChunksFetched int
	// MeanBitrateBps is the byte-weighted average requested bitrate.
	MeanBitrateBps int64
	// DominantResolution is the resolution (height) played for the
	// longest time; a tie goes to the higher resolution.
	DominantResolution int
	// RebufferEvents counts playback stalls; RebufferTime totals them.
	RebufferEvents int
	RebufferTime   sim.Time
	// Switches counts rung changes (stability indicator).
	Switches int
}

// RTCStats reports the §5.1/Table 2 real-time-communication metrics.
type RTCStats struct {
	// Resolution is the height the stream spent most time at; a tie goes
	// to the higher resolution.
	Resolution int
	// AvgFPS is frames rendered per second on average.
	AvgFPS float64
	// FreezesPerMinute uses the WebRTC freeze definition: a frame
	// inter-arrival gap exceeding max(3δ, δ+150ms).
	FreezesPerMinute float64
	// HighDelayFrac is the fraction of media packets whose estimated RTT
	// exceeded the ITU 190 ms bound for RTC.
	HighDelayFrac float64
	// MeanRateBps is the average media send rate achieved.
	MeanRateBps int64
}

// WebStats reports page-load behaviour (§5.2).
type WebStats struct {
	// PLTs are the per-load SpeedIndex-style page load times: time until
	// 95% of above-the-fold bytes arrived.
	PLTs []sim.Time
	// Loads is the number of completed page loads.
	Loads int
}

// FileStats reports bulk-transfer progress.
type FileStats struct {
	// BytesCompleted counts application bytes confirmed delivered.
	BytesCompleted int64
	// ChunksCompleted counts finished chunks/batches where applicable.
	ChunksCompleted int
	// Batches counts completed Mega-style chunk batches.
	Batches int
}
