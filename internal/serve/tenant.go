package serve

import "sync"

// tenantTable is the submission admission layer: a per-tenant token
// bucket (refilled at each cycle boundary) bounds how much catalog
// growth any one tenant can request per cycle, and a global pending
// queue cap bounds total daemon memory. It sees only submissions the
// handler has already checked (core.CheckSubmission), so a wrong
// access code never spends a token or takes a queue slot.
//
// The HTTP handler and the scheduler both go through the table's
// mutex. The optional submission WAL (subswal.go) is serialized by the
// same mutex, which also keeps WAL record order identical to admission
// order.
type tenantTable struct {
	mu sync.Mutex

	burst      int // tokens granted per tenant per cycle
	maxPending int // global queue cap across all tenants

	tokens  map[string]int
	pending []pendingSubmission
	wal     *subsWAL // nil = durability disabled
}

// pendingSubmission is one accepted-but-not-yet-applied submission. seq
// is its WAL sequence number (0 when durability is disabled).
type pendingSubmission struct {
	seq        uint64
	tenant     string
	url        string
	accessCode string
}

// admission verdicts, mapped to HTTP statuses by the handler.
type admitResult int

const (
	admitQueued admitResult = iota
	admitExhausted
	admitQueueFull
	// admitWALFail: the submission passed every admission check but its
	// durable accept record could not be written. Accepting anyway would
	// promise a durability the daemon cannot deliver, so the handler
	// answers 503 and the client retries after the next cycle boundary
	// (where compaction rewrites the WAL and clears the degradation).
	admitWALFail
)

func newTenantTable(burst, maxPending int) *tenantTable {
	return &tenantTable{
		burst:      burst,
		maxPending: maxPending,
		tokens:     make(map[string]int),
	}
}

// attachWAL arms the durable submission store. Must be called before
// the server starts admitting (no lock: single-threaded setup).
func (t *tenantTable) attachWAL(w *subsWAL) { t.wal = w }

// admit decides one POSTed submission. On admitQueued the submission is
// durably logged (when a WAL is attached), queued for the next cycle
// boundary, and one token is consumed; every other verdict leaves no
// trace beyond the (deterministic) token state that produced it.
// Returns the queue position (1-based) for queued submissions.
func (t *tenantTable) admit(tenant, url, accessCode string) (admitResult, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tokensLeft(tenant) <= 0 {
		return admitExhausted, 0
	}
	if len(t.pending) >= t.maxPending {
		return admitQueueFull, 0
	}
	seq := t.wal.nextSeq()
	if err := t.wal.appendAccept(seq, tenant, url, accessCode); err != nil {
		// The accept record is the 202's durability promise; without it
		// the submission is refused, with no token or queue side effects.
		return admitWALFail, 0
	}
	t.spend(tenant)
	t.pending = append(t.pending, pendingSubmission{seq: seq, tenant: tenant, url: url, accessCode: accessCode})
	return admitQueued, len(t.pending)
}

// drain removes and returns every pending submission, in arrival order.
// The scheduler calls it once per cycle boundary.
func (t *tenantTable) drain() []pendingSubmission {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.pending
	t.pending = nil
	return out
}

// The token bucket below is the admission policy, written once: the
// live paths (admit, cycleEnd) and WAL recovery (restore) both apply
// spend and refill. Callers hold t.mu.

// tokensLeft reports a tenant's unspent budget this cycle; a tenant the
// table has not seen holds a full burst.
func (t *tenantTable) tokensLeft(tenant string) int {
	if tok, seen := t.tokens[tenant]; seen {
		return tok
	}
	return t.burst
}

// spend consumes one token: the tenant's submission was accepted.
func (t *tenantTable) spend(tenant string) { t.tokens[tenant] = t.tokensLeft(tenant) - 1 }

// refill is the cycle boundary: every seen tenant's bucket refills.
func (t *tenantTable) refill() {
	for tenant := range t.tokens {
		t.tokens[tenant] = t.burst
	}
}

// settle records one applied submission's outcome: a durable apply
// record naming the cycle that will include it.
func (t *tenantTable) settle(sub pendingSubmission, cycle int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Best-effort: a sticky WAL error here degrades exactly-once
	// accounting to at-least-once for this submission (restart would
	// re-apply it), which is the right failure direction for a 202
	// already promised.
	t.wal.appendApply(sub.seq, err == nil, cycle)
}

// cycleEnd commits the just-published cycle to the WAL and refills the
// table. It then compacts the WAL down to a state snapshot plus the
// still-pending accepts; a successful compaction also recovers a writer
// that had degraded on disk errors. The returned error is the
// compaction failure, if any — informational, never fatal.
func (t *tenantTable) cycleEnd(cycle int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wal.appendCycle(cycle)
	t.refill()
	if t.wal == nil {
		return nil
	}
	tokens := make(map[string]int, len(t.tokens))
	for k, v := range t.tokens {
		tokens[k] = v
	}
	state := subsRecord{NextSeq: t.wal.nextSeq(), Tokens: tokens}
	return t.wal.compact(state, t.pending)
}

// restore folds a recovered WAL's records into the (freshly
// constructed) table: pending submissions re-queue in arrival order,
// token buckets re-derive by applying each record's live-time effect
// (spend, refill). It returns the submissions whose apply records name
// a cycle that never committed — their URLs were Submit'd into an
// engine whose cycle never published, so the caller must re-Submit
// them before resuming that cycle (they land in exactly the cycle their
// apply record promised, applied once from the client's point of view).
func (t *tenantTable) restore(rec subsRecovery) (resubmit []pendingSubmission) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type appliedSub struct {
		sub   pendingSubmission
		cycle int
	}
	var stateSeq uint64
	var uncommitted []appliedSub
	for _, r := range rec.Records {
		switch r.Op {
		case "state":
			stateSeq = r.NextSeq
			t.tokens = make(map[string]int, len(r.Tokens))
			for k, v := range r.Tokens {
				t.tokens[k] = v
			}
		case "accept":
			sub := pendingSubmission{seq: r.Seq, tenant: r.Tenant, url: r.URL, accessCode: r.Code}
			t.pending = append(t.pending, sub)
			if r.Seq >= stateSeq {
				// Accepts carried through compaction (seq below the
				// snapshot's next_seq) are already accounted in the
				// snapshot's token map; only post-snapshot accepts
				// consume.
				t.spend(r.Tenant)
			}
		case "apply":
			for i := range t.pending {
				if t.pending[i].seq != r.Seq {
					continue
				}
				sub := t.pending[i]
				t.pending = append(t.pending[:i], t.pending[i+1:]...)
				if r.OK {
					uncommitted = append(uncommitted, appliedSub{sub: sub, cycle: r.Cycle})
				}
				break
			}
		case "cycle":
			kept := uncommitted[:0]
			for _, a := range uncommitted {
				if a.cycle > r.Cycle {
					kept = append(kept, a)
				}
			}
			uncommitted = kept
			t.refill()
		}
	}
	for _, a := range uncommitted {
		resubmit = append(resubmit, a.sub)
	}
	return resubmit
}
