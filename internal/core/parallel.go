package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The one dispatch loop.
//
// Every phase of a cycle is the same shape: n independent tasks — solo
// calibrations, screening passes, pairs — each a pure function of its
// index (every trial builds a private sim.Engine + netem testbed from a
// seed derived from (BaseSeed, identity, attempt)), whose outputs must
// be published in index order. runOrdered is the only place that shape
// is spelled: it owns the latched interrupt, the worker spawn, the
// inline-at-one-worker switch and — through mergeOrdered, which the
// fleet path shares — the canonical-order merge. Calibration
// (watchdog.go), screening (adaptive.go) and the local pair matrix
// (runAll below) are task/release closures over it; a distributed
// matrix (remote.go) differs only in who produces the results.
//
// Workers buffer, the merger emits: a task never calls a user hook. It
// returns its value (a pair's buffered ledger events, a calibration's
// reading) and release — always on the goroutine that called
// runOrdered, strictly in index order, streamed as the canonical prefix
// completes — turns it into OnFault/OnPair/Progress traffic. The
// released byte stream is therefore identical for any worker count,
// including 1; and since every attempt is journaled before its task
// returns, a crash mid-cycle finds every released task on disk.
//
// Interrupt and drain: the hook is polled by the tasks themselves, at
// their own safe points (before a calibration, before every screening
// and pair trial), through the latched closure the runner hands them —
// the first true answer sticks, so no worker polls the hook again. A
// task that sees the interrupt returns completed=false: its partial
// value is dropped (never released), its worker takes no further task,
// and the other workers stop at their next poll after draining the
// trial in flight. Completed tasks stranded behind an abandoned index
// are still released, in index order — resume correctness needs only
// per-task purity, not a canonical prefix.

// workerCount clamps a requested worker count to [1, tasks] (minimum 1
// even for zero tasks).
func workerCount(requested, tasks int) int {
	if requested > tasks {
		requested = tasks
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// runOrdered runs task(0..n-1) on up to `workers` goroutines and
// releases the completed ones in index order (see the file comment for
// the full contract). It reports whether the run was interrupted, i.e.
// whether any task went unreleased. With one resolved worker the tasks
// run inline on the caller goroutine and no goroutine is spawned, so
// the hook need not be concurrency-safe unless workers > 1.
func runOrdered[T any](n, workers int, hook func() bool,
	task func(i int, interrupt func() bool) (v T, completed bool),
	release func(i int, v T)) (interrupted bool) {
	var stop atomic.Bool
	interrupt := func() bool {
		if stop.Load() {
			return true
		}
		if hook != nil && hook() {
			stop.Store(true)
			return true
		}
		return false
	}
	var cursor atomic.Int64
	// work runs one worker's share: tasks in cursor order until they run
	// out, the latch trips, or a task is abandoned.
	work := func(yield func(i int, v T)) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n || stop.Load() {
				return
			}
			v, completed := task(i, interrupt)
			if !completed {
				return
			}
			yield(i, v)
		}
	}

	nw := workerCount(workers, n)
	if nw == 1 {
		// Inline: the merge's source is the caller goroutine itself, so
		// each task is released before the next starts.
		return mergeOrdered(n, work, release)
	}
	type result struct {
		i int
		v T
	}
	results := make(chan result, n) // one send per task: workers never block on the merger
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(func(i int, v T) { results <- result{i, v} })
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	return mergeOrdered(n, func(yield func(int, T)) {
		for r := range results {
			yield(r.i, r.v)
		}
	}, release)
}

// mergeOrdered is the canonical-order merge: source yields (index,
// value) results in any order — from this goroutine's own tasks, from
// pool workers, or from a remote runner — and release receives them in
// index order, each exactly once, as soon as every lower index has been
// released. When the source is exhausted, results stranded behind a
// missing index are released too, still in index order. It reports
// whether fewer than n results arrived.
func mergeOrdered[T any](n int, source func(yield func(i int, v T)), release func(i int, v T)) (incomplete bool) {
	pending := make(map[int]T)
	next := 0
	source(func(i int, v T) {
		pending[i] = v
		for {
			v, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			release(next, v)
			next++
		}
	})
	stranded := make([]int, 0, len(pending))
	for i := range pending {
		stranded = append(stranded, i)
	}
	sort.Ints(stranded)
	for _, i := range stranded {
		release(i, pending[i])
	}
	return next+len(stranded) < n
}

// runAll executes every pending pair on the local pool and reports
// whether the run was interrupted. A pair's task value is its buffered
// ledger events; releasePair publishes them.
func (m *Matrix) runAll(states []*pairState, opts SchedulerOptions) (interrupted bool) {
	// busyNanos accumulates time spent actually running pairs (as opposed
	// to waiting for a task), feeding the pool busy-fraction gauge. Only
	// measured when instrumented: the wall clock stays off the
	// uninstrumented path.
	var busyNanos atomic.Int64
	var poolStart time.Time
	if m.Obs != nil {
		poolStart = time.Now()
	}
	interrupted = runOrdered(len(states), m.Workers, m.Interrupt,
		func(i int, interrupt func() bool) (events []FaultEvent, completed bool) {
			pp := &pairProtocol{net: m.Net, opts: opts, ins: m.Obs, sink: m.Journal,
				emit: func(ev FaultEvent) { events = append(events, ev) }}
			var t0 time.Time
			if m.Obs != nil {
				t0 = time.Now()
			}
			completed = pp.run(states[i], interrupt)
			if m.Obs != nil {
				busyNanos.Add(int64(time.Since(t0)))
			}
			return events, completed
		}, m.releasePair(states))
	if nw := workerCount(m.Workers, len(states)); nw > 1 && m.Obs != nil {
		if elapsed := time.Since(poolStart); elapsed > 0 {
			m.Obs.poolStats(float64(busyNanos.Load()) / (float64(elapsed) * float64(nw)))
		}
	}
	return interrupted
}

// releasePair returns the pair matrix's release half, shared by the
// local pool and the remote runner: a finished pair's ledger events,
// then breaker scoring, telemetry, OnPair and the Progress line
// (Matrix.finish).
func (m *Matrix) releasePair(states []*pairState) func(i int, events []FaultEvent) {
	return func(i int, events []FaultEvent) {
		for _, ev := range events {
			m.fault(ev)
		}
		m.finish(states[i])
	}
}
