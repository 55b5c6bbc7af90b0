package trace

import (
	"testing"

	"prudentia/internal/core"
)

func TestFaultLedgerCountsAndSummary(t *testing.T) {
	l := &FaultLedger{}
	if got := l.Summary(); got != "" {
		t.Fatalf("empty ledger Summary = %q", got)
	}
	l.Record(core.FaultEvent{Pair: "a vs b", Kind: "panic", Attempt: 0, Seed: 42, Detail: "boom"})
	l.Record(core.FaultEvent{Pair: "a vs b", Kind: "retry", Attempt: 0, Seed: 42})
	l.Record(core.FaultEvent{Pair: "c vs d", Kind: "panic", Attempt: 1, Seed: 7})
	counts := l.Counts()
	if counts["panic"] != 2 || counts["retry"] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	if got := l.Summary(); got != "panic=2 retry=1" {
		t.Fatalf("Summary = %q, want %q", got, "panic=2 retry=1")
	}
}
