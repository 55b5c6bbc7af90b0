package trace

import (
	"testing"

	"prudentia/internal/core"
)

func TestSummary(t *testing.T) {
	if got := Summary(nil); got != "" {
		t.Fatalf("Summary of no events = %q", got)
	}
	events := []core.FaultEvent{
		{Pair: "a vs b", Kind: "retry", Attempt: 0, Seed: 42},
		{Pair: "a vs b", Kind: "panic", Attempt: 0, Seed: 42, Detail: "boom"},
		{Pair: "c vs d", Kind: "panic", Attempt: 1, Seed: 7},
	}
	if got, want := Summary(events), "panic=2 retry=1"; got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
	l := &FaultLedger{}
	for _, ev := range events {
		l.Record(ev)
	}
	if got, want := l.Summary(), Summary(events); got != want {
		t.Fatalf("FaultLedger.Summary = %q, want %q", got, want)
	}
}
