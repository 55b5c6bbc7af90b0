package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/stats"
)

// TestSketchShardSplitInvariance: the consolidated report of a fleet
// is byte-identical whether 1, 2, or 5 workers
// executed the pair matrix. Each worker ships encoded sketches inside
// its PairOutcome JSON; the coordinator-side merge of all share
// sketches must land on identical bytes at every fleet size, which is
// the sketch Merge invariance surfaced end to end through the wire
// protocol.
func TestSketchShardSplitInvariance(t *testing.T) {
	tasks := allPairs(1)
	type report struct {
		outcomes [][]byte // per-task outcome JSON, in task order
		merged   []byte   // encoded merge of every share sketch
	}
	runFleet := func(workers int) report {
		coord := startTestCoordinator(t, nil)
		for i := 0; i < workers; i++ {
			startTestWorker(t, fmt.Sprintf("inv-w%d-%d", workers, i), coord.Addr())
		}
		if err := coord.WaitForWorkers(workers, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		ch, err := coord.RunPairs(tasks, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, ch, len(tasks))
		rep := report{outcomes: make([][]byte, len(tasks))}
		agg := stats.NewSketch()
		for i := range tasks {
			r := got[i]
			blob, err := json.Marshal(r.Outcome)
			if err != nil {
				t.Fatal(err)
			}
			rep.outcomes[i] = blob
			sk := r.Outcome.Sketches
			if sk == nil || sk.N == 0 {
				t.Fatalf("task %d: outcome carries no sketches over the wire", i)
			}
			for slot := 0; slot < 2; slot++ {
				if err := agg.Merge(sk.SharePct[slot]); err != nil {
					t.Fatal(err)
				}
			}
		}
		rep.merged = agg.Encode()
		_ = coord.Close()
		return rep
	}

	ref := runFleet(1)
	for _, workers := range []int{2, 5} {
		got := runFleet(workers)
		for i := range tasks {
			if !bytes.Equal(got.outcomes[i], ref.outcomes[i]) {
				t.Errorf("workers=%d task %d: outcome diverged\n got: %s\nwant: %s",
					workers, i, got.outcomes[i], ref.outcomes[i])
			}
		}
		if !bytes.Equal(got.merged, ref.merged) {
			t.Errorf("workers=%d: merged share sketch diverged from single-worker run", workers)
		}
	}

	// The single-worker fleet must itself match the serial in-process
	// execution, anchoring the whole chain to the local path.
	for i, task := range tasks {
		wantOut, _ := core.RunPairTask(testCatalog(), testSettings()[task.Setting],
			testOptions(task.Cycle, task.Setting), task)
		wj, _ := json.Marshal(wantOut)
		if !bytes.Equal(ref.outcomes[i], wj) {
			t.Errorf("task %d: fleet outcome diverged from serial\nfleet:  %s\nserial: %s",
				i, ref.outcomes[i], wj)
		}
	}
}
