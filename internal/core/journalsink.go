package core

import (
	"sync"

	"prudentia/internal/journal"
)

// journalSink adapts the write-ahead journal (internal/journal) to the
// trial protocol: it records every classified attempt as it completes
// and serves recovered attempts back by seed, so a resumed cycle
// replays journaled work instead of re-simulating it. Because every
// trial seed is a pure function of (BaseSeed, experiment identity,
// attempt), the seed alone identifies an attempt across process
// restarts, for any worker count and any interleaving.
//
// The sink is safe for concurrent use (worker-pool trials record from
// their own goroutines). Journal write failures degrade silently to
// unjournaled operation — the journal is a durability optimization,
// never a correctness dependency; the Writer's sticky error surfaces
// in the cycle's journal stats.
// journalEntry aliases the journal's record type for the protocol code.
type journalEntry = journal.Entry

type journalSink struct {
	w *journal.Writer

	mu       sync.Mutex
	seen     map[uint64]journal.Entry
	replayed int64
}

// newJournalSink indexes the recovered entries by seed. Later
// duplicates win, matching append order.
func newJournalSink(w *journal.Writer, recovered []journal.Entry) *journalSink {
	s := &journalSink{w: w, seen: make(map[uint64]journal.Entry, len(recovered))}
	for _, e := range recovered {
		s.seen[e.Seed] = e
	}
	return s
}

// lookup serves a recovered attempt by seed, counting the replay.
func (s *journalSink) lookup(seed uint64) (journal.Entry, bool) {
	if s == nil {
		return journal.Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.seen[seed]
	if ok {
		s.replayed++
	}
	return e, ok
}

// record journals one freshly-executed attempt. The entry is also
// added to the in-memory index so an intra-process duplicate seed
// (impossible by construction, but cheap to defend) replays instead of
// re-appending.
func (s *journalSink) record(e journal.Entry, ins *Instruments) {
	if s == nil {
		return
	}
	s.mu.Lock()
	_, b0 := s.w.Stats()
	err := s.w.Append(e)
	_, b1 := s.w.Stats()
	if err == nil {
		s.seen[e.Seed] = e
	}
	s.mu.Unlock()
	if err == nil {
		ins.journalAppend(b1 - b0)
	}
}

// replayCount reports how many attempts were served from the journal.
func (s *journalSink) replayCount() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}
