package serve

import (
	"encoding/json"
	"fmt"

	"prudentia/internal/journal"
	"prudentia/internal/obs"
)

// This file implements the durable submission store: a journal.Log
// (schema prudentia.subs/1) that records every accepted submission
// *before* its 202 is sent. The log owns framing, recovery, fsynced
// sticky-error appends and atomic rewrite; this file owns the record
// vocabulary, sequence tracking and the compaction contents. The 202
// is a promise — "your URL will join the catalog at the next cycle
// boundary" — and without a durable record a daemon crash between
// acceptance and application silently breaks it. With the WAL, restart
// replays unapplied submissions in arrival order and re-derives the
// tenant token-bucket and submission-breaker state, so no accepted
// submission is lost and none is applied twice.
//
// Record lifecycle (all payloads are one JSON subsRecord after the
// {"schema":"prudentia.subs/1"} header frame):
//
//	accept {seq, tenant, url, code}   fsynced before the 202 goes out
//	apply  {seq, ok, cycle}           at the cycle boundary, before the
//	                                  cycle that includes the URL runs
//	cycle  {cycle}                    after the cycle's artifacts are
//	                                  durably published — the commit
//	                                  marker for every apply ≤ cycle
//	state  {next_seq, tokens, breakers}  compaction snapshot
//
// Replay rules: an accept with no apply is still pending (re-queued);
// an apply with no later cycle commit was consumed by a cycle that
// never published — its URL is re-submitted into the engine before the
// interrupted cycle resumes, so it lands in exactly the cycle its apply
// record names; an apply followed by its cycle commit is fully done.
// Compaction at each cycle boundary rewrites the file as header + state
// snapshot + the still-pending accepts, keeping the log O(pending)
// instead of O(history); accepts carried through compaction keep their
// original seqs, and seqs below the snapshot's next_seq do not
// re-consume tokens (the snapshot already accounts for them).

// subsSchema identifies the submission WAL format; bump on breaking
// change.
const subsSchema = "prudentia.subs/1"

// subsRecord is the single wire shape for every WAL payload; Op selects
// which fields are meaningful.
type subsRecord struct {
	Op     string `json:"op"`
	Seq    uint64 `json:"seq,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	URL    string `json:"url,omitempty"`
	Code   string `json:"code,omitempty"`
	OK     bool   `json:"ok,omitempty"`
	Cycle  int    `json:"cycle,omitempty"`

	// state-snapshot fields (Op == "state").
	NextSeq  uint64            `json:"next_seq,omitempty"`
	Tokens   map[string]int    `json:"tokens,omitempty"`
	Breakers []obs.BreakerInfo `json:"breakers,omitempty"`
}

// subsRecovery reports what openSubsWAL found on disk: the intact
// records in append order plus how much torn tail was cut.
type subsRecovery struct {
	Records   []subsRecord
	TornBytes int64
	Truncated bool
}

// subsWAL appends submission records to a journal.Log and tracks the
// next sequence number. Every call site already holds tenantTable.mu
// (admission) or runs on the scheduler goroutine with the table locked,
// which serializes seq. Append errors are sticky (journal.Log): after
// the first failure the admission layer answers 503 instead of
// promising durability it cannot deliver, until a cycle-boundary
// compaction rewrites the file and clears the degradation.
type subsWAL struct {
	log *journal.Log
	seq uint64 // next sequence number to assign
}

// openSubsWAL recovers the WAL at path (created fresh when missing) and
// returns every intact record in append order for the tenant table to
// fold into state. It inherits journal.OpenLog's failure policy: fatal
// only when durable 202 promises would be lost (unreadable file,
// foreign or future schema); a disk fault during repair or creation
// returns the recovered records with a writer whose stickyErr refuses
// new admissions until compaction rewrites the file.
func openSubsWAL(path string, wrap journal.WrapFunc) (*subsWAL, subsRecovery, error) {
	var rec subsRecovery
	w := &subsWAL{seq: 1}
	log, lr, err := journal.OpenLog(path, subsSchema, wrap, func(p []byte) error {
		var r subsRecord
		if err := json.Unmarshal(p, &r); err != nil {
			return err
		}
		rec.Records = append(rec.Records, r)
		if r.Seq >= w.seq {
			w.seq = r.Seq + 1
		}
		if r.Op == "state" && r.NextSeq > w.seq {
			w.seq = r.NextSeq
		}
		return nil
	})
	if err != nil {
		return nil, subsRecovery{}, fmt.Errorf("serve: submission wal: %w", err)
	}
	w.log = log
	rec.TornBytes, rec.Truncated = lr.TornBytes, lr.Truncated
	return w, rec, nil
}

// stickyErr reports the writer's current sticky append error (nil when
// healthy or when durability is disabled).
func (w *subsWAL) stickyErr() error {
	if w == nil {
		return nil
	}
	return w.log.Err()
}

// nextSeq returns the sequence number the next accept will carry.
func (w *subsWAL) nextSeq() uint64 {
	if w == nil {
		return 0
	}
	return w.seq
}

// append durably logs one record. Errors are sticky; a nil WAL is a
// no-op (durability disabled).
func (w *subsWAL) append(r subsRecord) error {
	if w == nil {
		return nil
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: marshal wal record: %w", err)
	}
	if err := w.log.Append(payload); err != nil {
		return err
	}
	if r.Op == "accept" && r.Seq >= w.seq {
		w.seq = r.Seq + 1
	}
	return nil
}

// appendAccept durably records one accepted submission. Must succeed
// before the 202 is sent; the caller rolls back admission on error.
func (w *subsWAL) appendAccept(seq uint64, tenant, url, code string) error {
	return w.append(subsRecord{Op: "accept", Seq: seq, Tenant: tenant, URL: url, Code: code})
}

// appendApply records one submission's application outcome and the
// cycle that will include it. Written before that cycle runs.
func (w *subsWAL) appendApply(seq uint64, ok bool, cycle int) error {
	return w.append(subsRecord{Op: "apply", Seq: seq, OK: ok, Cycle: cycle})
}

// appendCycle writes the commit marker for cycle: every apply record
// naming a cycle ≤ this one is now fully done (its artifacts are
// durably published).
func (w *subsWAL) appendCycle(cycle int) error {
	return w.append(subsRecord{Op: "cycle", Cycle: cycle})
}

// compact atomically rewrites the WAL as header + state snapshot + the
// given still-pending accepts (journal.Log.Rewrite). A successful
// compaction clears any sticky append error — the degraded writer gets
// a fresh file — while a failed one leaves the old file untouched.
func (w *subsWAL) compact(state subsRecord, pending []pendingSubmission) error {
	if w == nil {
		return nil
	}
	state.Op = "state"
	recs := []subsRecord{state}
	for _, p := range pending {
		recs = append(recs, subsRecord{Op: "accept", Seq: p.seq, Tenant: p.tenant, URL: p.url, Code: p.accessCode})
	}
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		var err error
		if payloads[i], err = json.Marshal(r); err != nil {
			return fmt.Errorf("serve: marshal wal snapshot: %w", err)
		}
	}
	if err := w.log.Rewrite(payloads); err != nil {
		return fmt.Errorf("serve: submission wal compact: %w", err)
	}
	if state.NextSeq > w.seq {
		w.seq = state.NextSeq
	}
	return nil
}

// close releases the file; acknowledged appends are already durable.
func (w *subsWAL) close() error {
	if w == nil {
		return nil
	}
	return w.log.Close()
}
