package services

import (
	"prudentia/internal/sim"
	"prudentia/internal/transport"
)

// Mega models the Mega file-distribution service, the most contentious
// service in the paper's catalog (Obs 3, Obs 4). Its custom JavaScript
// downloader opens five concurrent BBR connections and fetches the file
// in *batches of five chunks*, one chunk per flow. A flow finishing its
// chunk early goes idle until the entire batch completes; only then does
// the next batch start — on all five connections at once, with their
// congestion windows still wide open (no slow-start restart). The result
// is the synchronized burst/gap pattern of Fig 4: loss-based competitors
// take a loss burst and cannot recover before the next batch, while BBR
// competitors (Dropbox) ramp into the gaps.
type Mega struct {
	Factory AlgFactory
	// BatchPause is the client-side coordination delay between batches
	// (hash verification + scheduling in the real client).
	BatchPause sim.Time
}

// The deployed client's batch: megaFlows connections, one chunk of
// megaChunkBytes each.
const (
	megaFlows      = 5
	megaChunkBytes = 1 << 20
)

// NewMega returns the Mega model with deployed-client parameters.
func NewMega(f AlgFactory) *Mega {
	return &Mega{Factory: f, BatchPause: 350 * sim.Millisecond}
}

// Name implements Service.
func (s *Mega) Name() string { return "Mega" }

// Category implements Service.
func (s *Mega) Category() Category { return CategoryFile }

// MaxRateBps implements Service.
func (s *Mega) MaxRateBps() int64 { return 0 }

// FlowCount implements Service.
func (s *Mega) FlowCount() int { return megaFlows }

// Start implements Service.
func (s *Mega) Start(env *Env) Instance {
	inst := &megaInstance{env: env, svc: s}
	inst.startBatch(env.Eng.Now())
	return inst
}

type megaInstance struct {
	env     *Env
	svc     *Mega
	flows   []*transport.Flow
	stopped bool

	remaining int // chunks outstanding in the current batch
	stats     FileStats
}

// startBatch hands each of the five connections its chunk of the next
// batch, opening the connections on the first batch and reusing them
// after. Every connection sat idle through the barrier and the pause, so
// each restarts with its congestion window still wide open and sends it
// unpaced (Options.BurstOnIdleRestart): five synchronized window-sized
// bursts into the bottleneck queue at every batch boundary, which is
// what makes Mega's traffic the most violent in the catalog.
func (i *megaInstance) startBatch(now sim.Time) {
	if i.stopped {
		return
	}
	if len(i.flows) == 0 {
		for n := 0; n < megaFlows; n++ {
			alg := i.svc.Factory(i.env.RNG.Split())
			opts := flowOptions(alg)
			opts.BurstOnIdleRestart = true
			i.flows = append(i.flows,
				transport.NewFlow(i.env.TB, i.env.Slot, alg, opts))
		}
	}
	i.remaining = megaFlows
	for _, f := range i.flows {
		f.Write(megaChunkBytes, i.chunkDone)
	}
}

func (i *megaInstance) chunkDone(now sim.Time) {
	i.stats.BytesCompleted += megaChunkBytes
	i.stats.ChunksCompleted++
	i.remaining--
	if i.remaining > 0 || i.stopped {
		return
	}
	// Whole batch finished: pause, then burst the next batch.
	i.stats.Batches++
	i.env.Eng.After(i.svc.BatchPause, i.startBatch)
}

func (i *megaInstance) Stop() {
	i.stopped = true
	for _, f := range i.flows {
		f.Close()
	}
}

func (i *megaInstance) Stats() Stats {
	st := i.stats
	return Stats{File: &st}
}
