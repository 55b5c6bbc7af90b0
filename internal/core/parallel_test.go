package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/netem"
)

// TestMatrixParallelDeterminism lives in parallel_determinism_test.go
// (package core_test) so it can render heatmaps through internal/report,
// which imports core.

// TestWatchdogCheckpointDeterminismAcrossWorkers asserts the stronger
// cycle-level property: not only the final CycleResult but the
// checkpoint header on disk at every released pair is byte-identical
// between a serial and an 8-worker run. The file is sampled at each
// per-pair Progress callback, which the ordered merge fires on the
// release path, where the header's decisions are made and flushed.
func TestWatchdogCheckpointDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) (snaps []string, final []byte) {
		ckpt := filepath.Join(t.TempDir(), "ckpt.json")
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 21
		opts.Chaos = &chaos.Config{PanicRate: 0.12, ErrorRate: 0.08, CorruptRate: 0.10}
		w := &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			Workers:        workers,
			CheckpointPath: ckpt,
			Progress: func(format string, args ...any) {
				b, err := os.ReadFile(ckpt)
				if err != nil {
					t.Errorf("checkpoint unreadable at progress point: %v", err)
					return
				}
				snaps = append(snaps, string(b))
			},
		}
		cr, err := w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		final, _ = json.Marshal(cr)
		return snaps, final
	}
	serialSnaps, serialFinal := run(1)
	parallelSnaps, parallelFinal := run(8)
	if len(serialSnaps) == 0 {
		t.Fatal("no checkpoint snapshots captured")
	}
	if len(serialSnaps) != len(parallelSnaps) {
		t.Fatalf("snapshot counts differ: serial %d, parallel %d", len(serialSnaps), len(parallelSnaps))
	}
	for i := range serialSnaps {
		if serialSnaps[i] != parallelSnaps[i] {
			t.Fatalf("checkpoint %d differs between worker counts:\n%s\nvs\n%s",
				i, serialSnaps[i], parallelSnaps[i])
		}
	}
	if !bytes.Equal(serialFinal, parallelFinal) {
		t.Fatalf("final cycle differs between worker counts:\n%s\nvs\n%s", serialFinal, parallelFinal)
	}
}

// TestParallelInterruptCheckpointResume covers graceful shutdown of a
// parallel cycle (the -workers analogue of the SIGINT path): the first
// interrupt drains in-flight trials and leaves a loadable checkpoint,
// and a parallel resume from it replays into a cycle byte-identical to
// an uninterrupted serial run.
func TestParallelInterruptCheckpointResume(t *testing.T) {
	mk := func(ckpt string, workers int, interrupt func() bool) *Watchdog {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		return &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			Workers:        workers,
			CheckpointPath: ckpt,
			Interrupt:      interrupt,
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")

	// Interrupt partway through the matrix. The hook is polled from
	// worker goroutines, hence the atomic counter.
	var polls atomic.Int64
	wA := mk(ckpt, 4, func() bool { return polls.Add(1) > 10 })
	if _, err := wA.RunCycle(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted parallel cycle returned %v, want ErrInterrupted", err)
	}
	cp, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint after parallel interrupt not loadable: %v", err)
	}
	if cp.Cycle != 1 {
		t.Fatalf("checkpoint cycle = %d, want 1", cp.Cycle)
	}

	wB := mk(ckpt, 4, nil)
	if found, err := wB.LoadCheckpoint(); err != nil || !found {
		t.Fatalf("LoadCheckpoint = %v, %v; want found", found, err)
	}
	crB, err := wB.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after completed cycle: %v", err)
	}

	wC := mk("", 1, nil)
	crC, err := wC.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(crB)
	jc, _ := json.Marshal(crC)
	if !bytes.Equal(jb, jc) {
		t.Fatalf("parallel resume differs from uninterrupted serial run:\n%s\nvs\n%s", jb, jc)
	}
}

// TestRunPairLedgerUnconditional is the regression test for the
// RunPair fix: every attempt must be recorded on both the outcome and
// the fault ledger before any return path — including the attempt that
// quarantines the pair and the discard/corrupt attempt that exhausts
// MaxDiscards, which earlier versions dropped from the ledger by
// returning first.
func TestRunPairLedgerUnconditional(t *testing.T) {
	net := netem.HighlyConstrained()

	// Quarantine path: every trial errors; the final (quarantining)
	// attempt must appear in the ledger too.
	opts := fastOpts(net)
	opts.MaxFailures = 3
	opts.Chaos = &chaos.Config{ErrorRate: 1}
	var events []FaultEvent
	p, err := RunPairObserved(threeServices()[0], threeServices()[1], net, opts,
		func(ev FaultEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if !p.Failed || len(p.Failures) != opts.MaxFailures {
		t.Fatalf("pair not quarantined after %d failures: %+v", opts.MaxFailures, p)
	}
	byKind := map[string]int{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	if byKind["error"] != opts.MaxFailures {
		t.Errorf("ledger recorded %d error attempts, want %d (unconditional recording)",
			byKind["error"], opts.MaxFailures)
	}
	if byKind["retry"] != opts.MaxFailures-1 || byKind["quarantine"] != 1 {
		t.Errorf("ledger transitions = %v, want %d retries and 1 quarantine",
			byKind, opts.MaxFailures-1)
	}
	// Ledger attempts must match the outcome's failure records 1:1.
	i := 0
	for _, ev := range events {
		if ev.Kind != "error" {
			continue
		}
		f := p.Failures[i]
		if ev.Attempt != f.Attempt || ev.Seed != f.Seed {
			t.Errorf("ledger event %d (attempt %d seed %d) != outcome failure (attempt %d seed %d)",
				i, ev.Attempt, ev.Seed, f.Attempt, f.Seed)
		}
		i++
	}

	// Discard-exhaustion path: every trial is corrupted; the attempt
	// that exhausts MaxDiscards must be in the ledger despite the early
	// Unstable return.
	opts = fastOpts(net)
	opts.MaxDiscards = 2
	opts.Chaos = &chaos.Config{CorruptRate: 1}
	events = nil
	p, err = RunPairObserved(threeServices()[0], threeServices()[1], net, opts,
		func(ev FaultEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if !p.Unstable || p.Corrupt != opts.MaxDiscards+1 {
		t.Fatalf("pair not unstable after exhausting discards: %+v", p)
	}
	corrupt := 0
	for _, ev := range events {
		if ev.Kind == "corrupt" {
			corrupt++
		}
	}
	if corrupt != opts.MaxDiscards+1 {
		t.Errorf("ledger recorded %d corrupt attempts, want %d (terminal attempt included)",
			corrupt, opts.MaxDiscards+1)
	}

	// Plain RunPair (nil ledger) must behave identically.
	p2, err := RunPair(threeServices()[0], threeServices()[1], net, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(p2)
	if !bytes.Equal(a, b) {
		t.Fatalf("RunPair and RunPairObserved outcomes differ:\n%s\nvs\n%s", a, b)
	}

	if _, err := RunPairObserved(nil, nil, net, opts, nil); err == nil {
		t.Fatal("nil incumbent must be rejected")
	}
}

// TestRunOrdered pins the one dispatch loop's contract for every shape
// the cycle uses it in: the resolved pool width (never more workers
// than tasks, never fewer than one), canonical release order for any
// completion order, the interrupt/drain/strand rules, and the inline
// side's promise to stay on the caller goroutine.
func TestRunOrdered(t *testing.T) {
	cases := []struct{ n, workers, width int }{
		{0, 0, 1}, {0, 1, 1}, {0, 3, 1}, {0, 16, 1},
		{1, 0, 1}, {1, 1, 1}, {1, 3, 1}, {1, 16, 1},
		{7, 0, 1}, {7, 1, 1}, {7, 3, 3}, {7, 16, 7},
		{10, -3, 1}, {10, 4, 4}, {6, 16, 6},
	}
	for _, c := range cases {
		if got := workerCount(c.workers, c.n); got != c.width {
			t.Errorf("workerCount(%d, %d) = %d, want %d", c.workers, c.n, got, c.width)
		}

		// Completed run: tasks finish in reverse index order (they sleep
		// inversely to their index), release must still be 0..n-1.
		before := runtime.NumGoroutine()
		var mu sync.Mutex
		var inFlight, maxInFlight int
		var released []int
		interrupted := runOrdered(c.n, c.workers, nil,
			func(i int, interrupt func() bool) (int, bool) {
				mu.Lock()
				inFlight++
				maxInFlight = max(maxInFlight, inFlight)
				mu.Unlock()
				defer func() { mu.Lock(); inFlight--; mu.Unlock() }()
				if c.width == 1 && runtime.NumGoroutine() > before {
					t.Errorf("n=%d workers=%d: inline side spawned a goroutine", c.n, c.workers)
				}
				if interrupt() {
					return 0, false
				}
				time.Sleep(time.Duration(c.n-i) * time.Millisecond)
				return i * i, true
			},
			func(i, v int) {
				if v != i*i {
					t.Errorf("n=%d workers=%d: release(%d) got value %d", c.n, c.workers, i, v)
				}
				released = append(released, i)
			})
		if interrupted {
			t.Errorf("n=%d workers=%d: uninterrupted run reported interrupted", c.n, c.workers)
		}
		if len(released) != c.n || !sort.IntsAreSorted(released) {
			t.Errorf("n=%d workers=%d: released %v, want 0..%d in order", c.n, c.workers, released, c.n-1)
		}
		if maxInFlight > c.width {
			t.Errorf("n=%d workers=%d: %d tasks in flight, want <= %d", c.n, c.workers, maxInFlight, c.width)
		}

		// Interrupted run: task k trips the hook and abandons. On the
		// pooled side it first waits for a higher index to complete, so a
		// completed task is certainly stranded behind it.
		k := c.n / 2
		if c.n == 0 {
			continue
		}
		var fire atomic.Bool
		completed := make([]atomic.Bool, c.n)
		higherDone := make(chan struct{}, c.n)
		released = released[:0]
		interrupted = runOrdered(c.n, c.workers, fire.Load,
			func(i int, interrupt func() bool) (int, bool) {
				if i == k {
					if c.width > 1 && k < c.n-1 {
						<-higherDone
					}
					fire.Store(true)
				}
				if interrupt() {
					return 0, false
				}
				completed[i].Store(true)
				if i > k {
					higherDone <- struct{}{}
				}
				return i, true
			},
			func(i, v int) { released = append(released, i) })
		if !interrupted {
			t.Errorf("n=%d workers=%d: interrupt at task %d not reported", c.n, c.workers, k)
		}
		var want []int
		for i := 0; i < c.n; i++ {
			if completed[i].Load() {
				want = append(want, i)
			}
		}
		if !slices.Equal(released, want) {
			t.Errorf("n=%d workers=%d: interrupt at %d released %v, want every completed task exactly once in order: %v",
				c.n, c.workers, k, released, want)
		}
		if completed[k].Load() {
			t.Errorf("n=%d workers=%d: abandoned task %d counted as completed", c.n, c.workers, k)
		}
		if c.width > 1 && k < c.n-1 && (len(released) == 0 || released[len(released)-1] < k) {
			t.Errorf("n=%d workers=%d: nothing stranded behind task %d was released: %v", c.n, c.workers, k, released)
		}
	}
}

// TestInterruptedLedgerNamesOnlyReleasedPairs: an interrupted matrix
// must not leak the abandoned pair's partial fault events — a
// checkpoint-only resume re-runs that pair from attempt 0 and emits them
// again, so a leaked event is double-counted across the two processes'
// ledgers. Every event delivered to OnFault therefore names a pair that
// was also released through OnPair, for any worker count and any
// interruption point.
func TestInterruptedLedgerNamesOnlyReleasedPairs(t *testing.T) {
	net := netem.HighlyConstrained()
	svcs := threeServices()
	for _, workers := range []int{1, 4} {
		for after := int64(1); after <= 30; after += 2 {
			opts := fastOpts(net)
			opts.BaseSeed = 11
			opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
			var polls atomic.Int64
			released := map[string]bool{}
			var events []FaultEvent
			m := &Matrix{
				Services:  svcs,
				Net:       net,
				Opts:      opts,
				Workers:   workers,
				Interrupt: func() bool { return polls.Add(1) > after },
				OnFault:   func(ev FaultEvent) { events = append(events, ev) },
				OnPair: func(key string, out *PairOutcome) {
					released[out.Incumbent+" vs "+out.Contender] = true
				},
			}
			if _, err := m.Run(); err == nil {
				break // the threshold outlasted the matrix: nothing left to interrupt
			} else if !errors.Is(err, ErrInterrupted) {
				t.Fatal(err)
			}
			for _, ev := range events {
				if !released[ev.Pair] {
					t.Errorf("workers=%d interrupt after %d polls: ledger event %q for %q, a pair never released",
						workers, after, ev.Kind, ev.Pair)
				}
			}
		}
	}
}
