package chaos

import "testing"

// TestPartitionBudget: each assignment, to whichever worker, burns one
// unit of budget; a spent partition never fires again.
func TestPartitionBudget(t *testing.T) {
	cfg := &Config{Partitions: []*WorkerPartition{{Times: 2}}}
	if taken := cfg.Partitions[0].taken.Load(); taken != 0 {
		t.Fatalf("fresh partition has spent %d, want 0", taken)
	}
	for i := 0; i < 2; i++ {
		if !cfg.TakePartition() {
			t.Fatalf("assignment %d: partition did not fire with budget left", i)
		}
	}
	if taken := cfg.Partitions[0].taken.Load(); taken != 2 {
		t.Fatalf("spent after 2 fires = %d, want 2", taken)
	}
	for i := 0; i < 5; i++ {
		if cfg.TakePartition() {
			t.Fatal("partition fired after its budget was spent")
		}
	}
}

// TestPartitionNilSafety: nil Configs, nil entries, and empty plans
// never fire and never panic.
func TestPartitionNilSafety(t *testing.T) {
	var nilCfg *Config
	if nilCfg.TakePartition() {
		t.Fatal("nil Config fired")
	}
	if (&Config{}).TakePartition() {
		t.Fatal("empty Config fired")
	}
	holey := &Config{Partitions: []*WorkerPartition{nil, {Times: 1}}}
	if !holey.TakePartition() {
		t.Fatal("nil entry masked a live partition")
	}
}

// TestPartitionEnablesChaos: a partitions-only plan counts as enabled,
// so operators see it reflected wherever Enabled() gates reporting.
func TestPartitionEnablesChaos(t *testing.T) {
	cfg := &Config{Partitions: []*WorkerPartition{{Times: 1}}}
	if !cfg.Enabled() {
		t.Fatal("partitions-only Config reports disabled")
	}
}
