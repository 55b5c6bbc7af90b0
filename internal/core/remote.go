package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// Distributed execution seam: the contract between the matrix scheduler
// and a remote runner (internal/fleet). A pair's outcome is a pure
// function of (catalog, setting, SchedulerOptions, pair identity), so
// the scheduler hands out PairTasks, the runner delivers PairTaskResults
// in any order, and the results enter the same canonical-order merge the
// local pool feeds (parallel.go) — which is why a fleet-wide report is
// byte-identical to a serial run at any worker count.

// PairTask identifies one pending pair of one setting's matrix. Cycle
// and Setting let a worker re-derive the scheduler options (and with
// them every trial seed) from its own configuration via
// Watchdog.SettingOptions; A and B are catalog indices (A <= B).
// Budget carries the pair's adaptive trial ceiling: screening runs
// coordinator-side, so the allocation must travel with the task for
// the worker's sequential stopper to reach the coordinator's stopping
// decision (zero on fixed-budget runs, preserving the wire format).
type PairTask struct {
	Cycle   int `json:"cycle"`
	Setting int `json:"setting"`
	A       int `json:"a"`
	B       int `json:"b"`
	Budget  int `json:"budget,omitempty"`
}

// PairTaskResult delivers one remotely executed pair: the index into
// the submitted task slice, the finished outcome, and the ledger events
// the pair protocol emitted, in emission order.
type PairTaskResult struct {
	Index   int
	Outcome *PairOutcome
	Events  []FaultEvent
}

// RemoteRunner executes pair tasks somewhere other than the local
// worker pool — the fleet coordinator implements it over TCP workers.
type RemoteRunner interface {
	// RunPairs dispatches tasks and returns a channel that delivers
	// each task's result exactly once, in any order. The channel closes
	// when every task has been delivered, or early when the interrupt
	// hook fires (undelivered tasks are simply not sent; the caller
	// treats the run as interrupted). The returned error reports only
	// dispatch-time failures (a closed coordinator), never task
	// failures — those are ordinary PairOutcomes with Failed set.
	RunPairs(tasks []PairTask, interrupt func() bool) (<-chan PairTaskResult, error)
}

// RunPairTask executes the full trial protocol for the catalog pair
// the task names in one setting — the fleet worker's entry point. The
// returned outcome and event stream are byte-identical to the same
// pair executed inside a local matrix, because every trial seed is a
// pure function of (opts.BaseSeed, pair identity, attempt) and the
// adaptive stopper is a pure function of the counted-trial prefix and
// the task's Budget.
func RunPairTask(svcs []services.Service, net netem.Config, opts SchedulerOptions, task PairTask) (*PairOutcome, []FaultEvent) {
	opts = opts.withDefaults(net)
	st := newPairState(task.A, task.B, svcs[task.A], svcs[task.B], opts)
	st.budget = task.Budget
	var events []FaultEvent
	pp := &pairProtocol{net: net, opts: opts,
		emit: func(ev FaultEvent) { events = append(events, ev) }}
	pp.run(st, nil)
	return st.outcome, events
}

// pairRecord is the Result payload of a "pair" journal entry: a pair a
// remote runner finished, whole. A remote pair's attempts run in
// another process and never reach this journal, so the finished pair is
// what the coordinator has to make durable.
type pairRecord struct {
	Outcome *PairOutcome `json:"outcome"`
	Events  []FaultEvent `json:"events,omitempty"`
}

// decodePairRecord reads a journaled pair back: an outcome that passes
// PairOutcome.Validate, or an error — a record this build cannot use
// (torn, foreign, sketch-less: ErrNoSketches) is never half-read into a
// blank cell; its pair is simply dispatched again.
func decodePairRecord(e journalEntry) (*PairOutcome, []FaultEvent, error) {
	var r pairRecord
	err := json.Unmarshal(e.Result, &r)
	if err == nil && r.Outcome == nil {
		err = errors.New("no outcome")
	}
	if err == nil {
		err = r.Outcome.Validate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: pair record %s: %w", e.Pair, err)
	}
	return r.Outcome, r.Events, nil
}

// runAllRemote executes every pending pair through m.Remote and feeds
// the results into the canonical-order merge. Duplicate and
// re-dispatched executions on the runner's side are invisible here:
// the runner delivers each task once, and — because re-runs are
// deterministic — whichever worker's result survives carries the same
// bytes. Seed derivation happens worker-side, from the same options.
//
// Each delivered result is journaled as one pair record before it
// enters the merge, and a pending pair whose record a previous process
// left is not dispatched: its record is yielded into the merge exactly
// as a worker's result is. The journal is a third producer of results
// beside the pool and the fleet, not a second scheduler. A record is
// keyed by its pair and the trial ceiling the pair ran under (0 for
// the fixed protocol), so one a cycle interrupted under the other
// protocol left is never taken for this one's: that pair is
// dispatched again.
func (m *Matrix) runAllRemote(states []*pairState) (interrupted bool, err error) {
	recordKey := func(st *pairState) uint64 {
		return trialSeed(m.Opts.BaseSeed, pairRecordSeedID(st.a, st.b), st.budget)
	}
	var recovered []PairTaskResult // Index is into states
	var tasks []PairTask
	var dispatched []int // tasks[k] is states[dispatched[k]]
	for i, st := range states {
		if e, ok := m.Journal.lookup(recordKey(st)); ok {
			if out, events, derr := decodePairRecord(e); derr == nil {
				m.Obs.journalReplay()
				recovered = append(recovered, PairTaskResult{Index: i, Outcome: out, Events: events})
				continue
			}
		}
		dispatched = append(dispatched, i)
		tasks = append(tasks, PairTask{Cycle: m.Cycle, Setting: m.Setting, A: st.a, B: st.b,
			Budget: st.budget})
	}
	ch, err := m.Remote.RunPairs(tasks, m.Interrupt)
	if err != nil {
		return false, err
	}
	return mergeOrdered(len(states), func(yield func(int, []FaultEvent)) {
		accept := func(r PairTaskResult) {
			// The result's outcome replaces the placeholder's fields in
			// place: res.Pairs already points at st.outcome.
			st := states[r.Index]
			*st.outcome = *r.Outcome
			m.Obs.remoteSimDurations(st.outcome)
			yield(r.Index, r.Events)
		}
		for _, r := range recovered {
			accept(r)
		}
		for r := range ch {
			r.Index = dispatched[r.Index]
			if m.Journal != nil {
				st := states[r.Index]
				if data, merr := json.Marshal(pairRecord{r.Outcome, r.Events}); merr == nil {
					m.Journal.record(journalEntry{Seed: recordKey(st), Pair: st.pairLabel(), Kind: "pair", Result: data}, m.Obs)
				}
			}
			accept(r)
		}
	}, m.releasePair(states)), nil
}
