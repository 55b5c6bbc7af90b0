package fleet

import (
	"fmt"
	"net"
	"testing"

	"prudentia/internal/core"
)

// partitionRig is an unstarted coordinator holding one dispatch of n
// pending pairs and `workers` idle single-slot workers on in-memory
// connections, so assignPending can be driven directly.
func partitionRig(t *testing.T, budget, workers, n int) (*Coordinator, *dispatchState) {
	t.Helper()
	c := &Coordinator{Partitions: budget, workers: make(map[string]*remoteWorker)}
	addWorkers(t, c, 0, workers)
	d := &dispatchState{
		tasks:  allPairs(1)[:n],
		done:   make([]bool, n),
		leases: make(map[uint64]*lease),
	}
	for i := range n {
		d.pending = append(d.pending, i)
	}
	c.run = d
	return c, d
}

// addWorkers connects idle workers named w<from>..w<from+k-1> to c.
func addWorkers(t *testing.T, c *Coordinator, from, k int) {
	for i := from; i < from+k; i++ {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		name := fmt.Sprintf("w%d", i)
		c.workers[name] = &remoteWorker{name: name, fc: newFrameConn(a), capacity: 1,
			leases: make(map[uint64]struct{}), gone: make(chan struct{})}
	}
}

// TestCoordinatorPartitionBudget: each assignment, to whichever worker,
// burns one unit of the Partitions budget — the assignee is dropped and
// its pair re-queued at the front — and a spent budget never severs.
func TestCoordinatorPartitionBudget(t *testing.T) { checkPartitionBudget(t, 2) }

// TestCoordinatorZeroPartitionBudget: a coordinator with no Partitions
// budget never severs a worker, and every pending pair is granted.
func TestCoordinatorZeroPartitionBudget(t *testing.T) { checkPartitionBudget(t, 0) }

// checkPartitionBudget drives assignPending over four workers and three
// pairs with the given budget, then over two fresh workers once it is spent.
func checkPartitionBudget(t *testing.T, budget int) {
	t.Helper()
	var events []core.FaultEvent
	c, d := partitionRig(t, budget, 4, 3)
	c.OnFault = func(ev core.FaultEvent) { events = append(events, ev) }
	c.mu.Lock()
	grants := c.assignPending(d)
	c.mu.Unlock()
	if c.partitioned != budget || len(events) != budget {
		t.Fatalf("budget %d: spent %d with %d ledger events", budget, c.partitioned, len(events))
	}
	if want := 4 - budget; len(c.workers) != want {
		t.Fatalf("budget %d: %d workers left, want %d", budget, len(c.workers), want)
	}
	if want := min(3, 4-budget); len(grants) != want {
		t.Fatalf("budget %d: %d grants, want %d", budget, len(grants), want)
	}
	// The severed assignments' pair goes first to the survivors.
	if task := grants[0].m.Task; task.A != 0 || task.B != 0 {
		t.Fatalf("budget %d: first grant is pair %d|%d, want 0|0", budget, task.A, task.B)
	}
	// Spent: fresh workers take the rest of the queue unsevered.
	addWorkers(t, c, 4, 2)
	c.mu.Lock()
	more := c.assignPending(d)
	c.mu.Unlock()
	if c.partitioned != budget || len(more) != 3-len(grants) {
		t.Fatalf("budget %d: after the budget, spent %d and granted %d more", budget, c.partitioned, len(more))
	}
}
