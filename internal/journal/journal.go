// Package journal is Prudentia's one durable-write primitive and the only
// package that knows the frame format. It provides, bottom up:
//
//   - the frame codec every log and sketch encoding shares (Frame,
//     ScanFrames);
//   - the File/WrapFunc storage seam that lets -chaos-disk inject
//     faults into every durable write;
//   - ReplaceFile, the atomic temp→fsync→rename→dir-fsync file replace
//     behind checkpoints, manifests and per-cycle artifacts;
//   - Log, a schema-stamped append-only file of opaque payloads with
//     torn-tail recovery, sticky-error fsynced appends and atomic
//     Rewrite — the submission WAL (internal/serve) is one;
//   - Writer/Entry, the write-ahead trial journal (prudentia.journal/1),
//     a typed layer over Log.
//
// The frame layout and the recovery rules are specified once, in
// ARCHITECTURE.md "Durability & supervision".
//
// The trial journal holds the finished work of the cycle last started,
// kept when it completes (the checkpoint beside it, internal/core, is
// only the cycle's header): a `kill -9` loses at most the single trial
// that was executing when the process died — resume replays journaled
// attempts without re-running their simulations and re-runs only what
// is genuinely missing.
package journal

import (
	"encoding/json"
	"fmt"
)

// Schema identifies the trial-journal format; bump on breaking change.
// The frame container is stable across versions — only the payload
// schema is versioned — so this build can always read a future
// journal's header far enough to refuse it cleanly (ErrFutureVersion).
const Schema = "prudentia.journal/1"

// Entry is one journaled trial attempt. Seed is the replay key: every
// trial seed is a pure function of (BaseSeed, experiment identity,
// attempt), so a resumed cycle asks the journal "do you already know
// seed S?" before simulating. Pair and Attempt are carried for humans
// and post-mortem tooling, not for lookup.
type Entry struct {
	// Seed is the trial seed — the unique replay key.
	Seed uint64 `json:"seed"`
	// Pair labels the experiment ("A vs B", "A (solo)", "A (canary)").
	Pair string `json:"pair,omitempty"`
	// Attempt is the per-experiment attempt index the seed derives from.
	Attempt int `json:"attempt"`
	// Kind classifies the attempt outcome: "ok" (counted trial),
	// "discard" (noise-discarded), "corrupt" (validity-gate rejection),
	// or "fail" (error or recovered panic).
	Kind string `json:"kind"`
	// Result carries the caller's serialized trial result for "ok" and
	// "discard" entries (the journal does not interpret it).
	Result json.RawMessage `json:"result,omitempty"`
	// Detail carries the validity error for "corrupt" and the failure
	// message for "fail".
	Detail string `json:"detail,omitempty"`
	// FailKind is the typed failure class for "fail" entries
	// ("panic", "error", "reap", "brownout", ...).
	FailKind string `json:"fail_kind,omitempty"`
	// SimSeconds preserves the simulated duration for entries whose
	// Result is not stored (corrupt results can hold NaN, which JSON
	// cannot carry), so replay feeds histograms identically.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Entries are the intact records, in append order.
	Entries []Entry
	// TornBytes is how many trailing bytes were truncated (0 for a
	// clean journal).
	TornBytes int64
	// Truncated reports whether a torn or corrupt tail was removed.
	Truncated bool
}

// Writer appends fsynced entries to a trial journal: a Log whose
// payloads are JSON Entries. It is safe for concurrent use; a nil
// *Writer is a no-op whose Append reports nothing written. Write errors
// are sticky (see Log), so a watchdog with a broken disk degrades to
// unjournaled operation instead of dying.
type Writer Log

// Stats returns the records and bytes appended by this writer (not
// counting what recovery found already on disk).
func (w *Writer) Stats() (records, bytes int64) { return (*Log)(w).Stats() }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return (*Log)(w).Err() }

// Close releases the file; every acknowledged append is already durable.
func (w *Writer) Close() error { return (*Log)(w).Close() }

// CreateWrapped makes a new journal at path (replacing any previous one)
// whose schema header is durable before it returns. Every file the
// journal opens is passed through wrap (nil = none), so fault-injecting
// wrappers see every byte the journal ever writes, header included.
func CreateWrapped(path string, wrap WrapFunc) (*Writer, error) {
	l := &Log{path: path, schema: Schema, wrap: wrap}
	if err := l.Rewrite(nil); err != nil {
		return nil, err
	}
	return (*Writer)(l), nil
}

// Open recovers the journal at path and positions a writer at its end.
// A missing file is created fresh. A torn or corrupt tail is truncated
// (and the truncation fsynced) before appending resumes; the returned
// Recovery reports the intact entries and how much was cut.
func Open(path string) (*Writer, Recovery, error) { return OpenWrapped(path, nil) }

// OpenWrapped is Open with a storage wrapper (see CreateWrapped). It
// follows OpenLog's failure policy: an error means intact history would
// be lost; a disk fault during repair instead returns the recovered
// entries with a writer whose Err is already set.
func OpenWrapped(path string, wrap WrapFunc) (*Writer, Recovery, error) {
	var rec Recovery
	l, lr, err := OpenLog(path, Schema, wrap, func(p []byte) error {
		var e Entry
		if err := json.Unmarshal(p, &e); err != nil {
			return err
		}
		rec.Entries = append(rec.Entries, e)
		return nil
	})
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.TornBytes, rec.Truncated = lr.TornBytes, lr.Truncated
	return (*Writer)(l), rec, nil
}

// Append journals one entry; it is durable when Append returns nil.
func (w *Writer) Append(e Entry) error {
	if w == nil {
		return nil
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: marshal entry: %w", err)
	}
	return (*Log)(w).Append(payload)
}
