package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
)

// openWALTable builds a tenant table backed by the WAL at path,
// replaying whatever is on disk. It returns the table and the
// submissions the replay says must be re-Submit'd into the engine.
func openWALTable(t *testing.T, path string, burst, maxPending int) (*tenantTable, []pendingSubmission) {
	t.Helper()
	w, rec, err := openSubsWAL(path, nil)
	if err != nil {
		t.Fatalf("openSubsWAL: %v", err)
	}
	t.Cleanup(func() { w.close() })
	tab := newTenantTable(burst, maxPending)
	resubmit := tab.restore(rec)
	tab.attachWAL(w)
	return tab, resubmit
}

// TestSubsWALAcceptSurvivesRestart: accepted-but-unapplied submissions
// re-queue after a restart, in arrival order, with their token
// consumption intact and sequence numbers continuing where the previous
// process stopped.
func TestSubsWALAcceptSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	tab, _ := openWALTable(t, path, 3, 16)
	if v, _ := tab.admit("t1", "https://a.example", "c"); v != admitQueued {
		t.Fatalf("admit a = %v", v)
	}
	if v, _ := tab.admit("t1", "https://b.example", "c"); v != admitQueued {
		t.Fatalf("admit b = %v", v)
	}
	tab.wal.close()

	tab2, resubmit := openWALTable(t, path, 3, 16)
	if len(resubmit) != 0 {
		t.Fatalf("resubmit = %v, want none (nothing applied)", resubmit)
	}
	got := tab2.drain()
	if len(got) != 2 || got[0].url != "https://a.example" || got[1].url != "https://b.example" {
		t.Fatalf("recovered pending = %+v", got)
	}
	if got[0].seq == 0 || got[1].seq <= got[0].seq {
		t.Fatalf("seqs not monotonic: %d, %d", got[0].seq, got[1].seq)
	}
	// Two of three tokens were consumed before the restart; exactly one
	// admission remains.
	if v, _ := tab2.admit("t1", "https://c.example", "c"); v != admitQueued {
		t.Fatalf("third admit = %v, want queued", v)
	}
	if v, _ := tab2.admit("t1", "https://d.example", "c"); v != admitExhausted {
		t.Fatalf("fourth admit = %v, want exhausted", v)
	}
	// New accepts must not reuse pre-restart sequence numbers.
	p := tab2.drain()
	if len(p) != 1 || p[0].seq <= got[1].seq {
		t.Fatalf("post-restart seq = %+v, want > %d", p, got[1].seq)
	}
}

// TestSubsWALUncommittedApplyResubmits: a submission whose apply record
// names a cycle that never committed was consumed by a cycle that never
// published — replay hands it back for re-Submit so it lands in exactly
// the cycle its apply record promised.
func TestSubsWALUncommittedApplyResubmits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	tab, _ := openWALTable(t, path, 4, 16)
	tab.admit("t1", "https://a.example", "c")
	subs := tab.drain()
	tab.settle(subs[0], 1, nil) // applied into cycle 1; cycle 1 never commits
	tab.wal.close()

	tab2, resubmit := openWALTable(t, path, 4, 16)
	if len(resubmit) != 1 || resubmit[0].url != "https://a.example" {
		t.Fatalf("resubmit = %+v, want the uncommitted submission", resubmit)
	}
	if p := tab2.drain(); len(p) != 0 {
		t.Fatalf("pending = %+v, want empty (already applied)", p)
	}
}

// TestSubsWALCycleCommitCompletes: once the including cycle commits,
// the submission is fully done — not pending, not re-submitted — and
// compaction has shrunk the WAL to snapshot + nothing.
func TestSubsWALCycleCommitCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	tab, _ := openWALTable(t, path, 4, 16)
	tab.admit("t1", "https://a.example", "c")
	subs := tab.drain()
	tab.settle(subs[0], 1, nil)
	if err := tab.cycleEnd(1); err != nil {
		t.Fatalf("cycleEnd: %v", err)
	}
	tab.wal.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := journal.ScanFrames(data)
	// header + state snapshot only: the applied submission compacted away.
	if len(payloads) != 2 {
		t.Fatalf("compacted WAL has %d frames, want 2 (header + state)", len(payloads))
	}

	_, resubmit := openWALTable(t, path, 4, 16)
	if len(resubmit) != 0 {
		t.Fatalf("resubmit = %+v, want none (cycle committed)", resubmit)
	}
}

// TestSubsWALTokensAcrossManyCycles: the per-tenant bucket refills at
// every cycle boundary and the compaction snapshot carries it
// correctly, including for pending accepts carried across the boundary
// (their tokens must not be double-charged on replay).
func TestSubsWALTokensAcrossManyCycles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	tab, _ := openWALTable(t, path, 2, 64)
	for cycle := 1; cycle <= 5; cycle++ {
		if v, _ := tab.admit("t1", "https://a.example", "c"); v != admitQueued {
			t.Fatalf("cycle %d first admit = %v", cycle, v)
		}
		if v, _ := tab.admit("t1", "https://b.example", "c"); v != admitQueued {
			t.Fatalf("cycle %d second admit = %v", cycle, v)
		}
		if v, _ := tab.admit("t1", "https://c.example", "c"); v != admitExhausted {
			t.Fatalf("cycle %d over-budget admit = %v, want exhausted", cycle, v)
		}
		for _, sub := range tab.drain() {
			tab.settle(sub, cycle, nil)
		}
		if err := tab.cycleEnd(cycle); err != nil {
			t.Fatalf("cycleEnd %d: %v", cycle, err)
		}
	}
	// Leave one accept pending across the last boundary, then restart.
	tab.admit("t1", "https://carried.example", "c")
	tab.cycleEnd(6)
	tab.wal.close()

	tab2, _ := openWALTable(t, path, 2, 64)
	if p := tab2.pendingCount(); p != 1 {
		t.Fatalf("carried pending = %d, want 1", p)
	}
	// The carried accept was charged to cycle 6's bucket; after the
	// boundary refill the new cycle has the full burst of 2.
	if v, _ := tab2.admit("t1", "https://x.example", "c"); v != admitQueued {
		t.Fatalf("post-restart admit 1 = %v", v)
	}
	if v, _ := tab2.admit("t1", "https://y.example", "c"); v != admitQueued {
		t.Fatalf("post-restart admit 2 = %v", v)
	}
	if v, _ := tab2.admit("t1", "https://z.example", "c"); v != admitExhausted {
		t.Fatalf("post-restart admit 3 = %v, want exhausted", v)
	}
}

// TestSubsWALTornTailRecovers: a crash mid-append leaves a torn frame;
// reopening truncates it and keeps every record before it.
func TestSubsWALTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	tab, _ := openWALTable(t, path, 4, 16)
	tab.admit("t1", "https://a.example", "c")
	tab.wal.close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0xff, 0x13}) // torn frame: length says 255, 1 byte present
	f.Close()

	w, rec, err := openSubsWAL(path, nil)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w.close()
	if !rec.Truncated || rec.TornBytes != 5 {
		t.Fatalf("recovery = %+v, want 5 torn bytes", rec)
	}
	if len(rec.Records) != 1 || rec.Records[0].URL != "https://a.example" {
		t.Fatalf("records = %+v", rec.Records)
	}
	// The torn bytes are gone from disk: appending and re-reading works.
	if err := w.appendAccept(w.nextSeq(), "t1", "https://b.example", "c"); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	w.close()
	_, rec2, err := openSubsWAL(path, nil)
	if err != nil || rec2.Truncated || len(rec2.Records) != 2 {
		t.Fatalf("reopen = %+v, %v", rec2, err)
	}
}

// TestSubsWALDegradedAdmit: when the durable accept record cannot be
// written (injected ENOSPC on every write), admission refuses with
// admitWALFail and leaves no token or queue side effects — a 503, not a
// broken 202 promise.
func TestSubsWALDegradedAdmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	// Create cleanly first so only appends fail, not the header.
	w0, _, err := openSubsWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w0.close()

	plan := &chaos.DiskPlan{Seed: 11, WriteErrRate: 1}
	w, _, err := openSubsWAL(path, plan.WrapFunc())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tab := newTenantTable(4, 16)
	tab.attachWAL(w)
	if v, _ := tab.admit("t1", "https://a.example", "c"); v != admitWALFail {
		t.Fatalf("degraded admit = %v, want admitWALFail", v)
	}
	if n := tab.pendingCount(); n != 0 {
		t.Fatalf("pending after refused admit = %d", n)
	}
	// Token was not consumed: with a working WAL the same tenant still
	// has its full burst.
	tab.mu.Lock()
	tok, seen := tab.tokens["t1"]
	tab.mu.Unlock()
	if seen && tok != 4 {
		t.Fatalf("tokens consumed by refused admit: %d", tok)
	}
}

// TestSubsWALDegradedBootHeals: a disk fault while creating a fresh WAL
// does not abort startup (there are no recovered promises in a fresh
// file). The writer boots degraded — admissions refused with
// admitWALFail — and the first cycle-boundary compaction on a healthy
// disk rewrites the file and restores durable admission.
func TestSubsWALDegradedBootHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.wal")
	plan := &chaos.DiskPlan{Seed: 3, WriteErrRate: 1}
	w, _, err := openSubsWAL(path, plan.WrapFunc())
	if err != nil {
		t.Fatalf("degraded create must not be fatal: %v", err)
	}
	defer w.close()
	if w.stickyErr() == nil {
		t.Fatal("writer must carry the boot failure as its sticky error")
	}
	tab := newTenantTable(4, 16)
	tab.attachWAL(w)
	if v, _ := tab.admit("t1", "https://a.example", "c"); v != admitWALFail {
		t.Fatalf("admit on degraded boot = %v, want admitWALFail", v)
	}

	// Disk heals; the next cycle boundary compacts a fresh file.
	plan.WriteErrRate = 0
	if err := tab.cycleEnd(1); err != nil {
		t.Fatalf("compaction on healed disk: %v", err)
	}
	if w.stickyErr() != nil {
		t.Fatalf("sticky error survived compaction: %v", w.stickyErr())
	}
	if v, _ := tab.admit("t1", "https://a.example", "c"); v != admitQueued {
		t.Fatalf("admit after heal = %v, want admitQueued", v)
	}

	// And the healed file round-trips: a restart replays the accept.
	w.close()
	tab2, _ := openWALTable(t, path, 4, 16)
	if n := tab2.pendingCount(); n != 1 {
		t.Fatalf("pending after restart = %d, want 1", n)
	}
}

// subsFixture is a submission WAL exactly as this build writes it:
// header, a compaction (state snapshot + one carried accept), then an
// accept, two applies and a cycle commit appended live.
const subsFixture = subsFixtureHeader +
	"\x00\x00\x004A%9f{\"op\":\"state\",\"next_seq\":5,\"tokens\":{\"t1\":2,\"t2\":4}}" +
	subsFixtureTail

// subsFixtureOlder is the same WAL as an older build wrote it: its state
// snapshot also carries that build's tenant circuit breakers, here one
// open breaker for "mallory". It must still resume.
const subsFixtureOlder = subsFixtureHeader +
	"\x00\x00\x00p\xe4\x86+\x05{\"op\":\"state\",\"next_seq\":5,\"tokens\":{\"t1\":2,\"t2\":4},\"breakers\":[{\"service\":\"mallory\",\"state\":\"open\",\"score\":6}]}" +
	subsFixtureTail

const subsFixtureHeader = "\x00\x00\x00\x1d\xa8G\x13\x9f{\"schema\":\"prudentia.subs/1\"}"

const subsFixtureTail = "\x00\x00\x00P\xc6z\x1eW{\"op\":\"accept\",\"seq\":4,\"tenant\":\"t1\",\"url\":\"https://carried.example\",\"code\":\"c\"}" +
	"\x00\x00\x00M\x8a\xf2\xa9j{\"op\":\"accept\",\"seq\":5,\"tenant\":\"t2\",\"url\":\"https://a.example\",\"code\":\"code\"}" +
	"\x00\x00\x00*\xec\x7f\xb6\xcc{\"op\":\"apply\",\"seq\":4,\"ok\":true,\"cycle\":3}" +
	"\x00\x00\x00 %\x91\n\\{\"op\":\"apply\",\"seq\":5,\"cycle\":3}" +
	"\x00\x00\x00\x18[\x97\xd0\x12{\"op\":\"cycle\",\"cycle\":3}"

// TestSubsWALFormatPinned pins prudentia.subs/1 on disk: this build's
// fixture and an older build's both recover to the same records, and
// replaying either through compact and the append path produces this
// build's bytes. On the restored older fixture, the tenant its
// snapshot names as suspended is judged like any other: 202 with a
// valid code, 403 with a wrong one.
func TestSubsWALFormatPinned(t *testing.T) {
	for _, fx := range []struct{ name, data string }{{"current", subsFixture}, {"older", subsFixtureOlder}} {
		path := filepath.Join(t.TempDir(), "subs.wal")
		if err := os.WriteFile(path, []byte(fx.data), 0o644); err != nil {
			t.Fatal(err)
		}
		w, rec, err := openSubsWAL(path, nil)
		if err != nil || rec.Truncated {
			t.Fatalf("%s fixture did not recover cleanly: %v %+v", fx.name, err, rec)
		}
		w.close()
		var ops []string
		for _, r := range rec.Records {
			ops = append(ops, r.Op)
		}
		if got := strings.Join(ops, " "); got != "state accept accept apply apply cycle" {
			t.Fatalf("%s fixture decoded to ops %q", fx.name, got)
		}
		if w.nextSeq() != 6 {
			t.Fatalf("%s fixture: next seq = %d, want 6", fx.name, w.nextSeq())
		}
		r := rec.Records
		if tok := r[0].Tokens; r[0].NextSeq != 5 || len(tok) != 2 || tok["t1"] != 2 || tok["t2"] != 4 {
			t.Fatalf("%s fixture: state = %+v, want next_seq 5, tokens t1:2 t2:4", fx.name, r[0])
		}
		carried := []pendingSubmission{{seq: r[1].Seq, tenant: r[1].Tenant, url: r[1].URL, accessCode: r[1].Code}}
		if carried[0] != (pendingSubmission{seq: 4, tenant: "t1", url: "https://carried.example", accessCode: "c"}) {
			t.Fatalf("%s fixture: carried accept = %+v", fx.name, carried[0])
		}

		fresh := filepath.Join(t.TempDir(), "subs.wal")
		w2, _, err := openSubsWAL(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.compact(r[0], carried); err != nil {
			t.Fatal(err)
		}
		for _, x := range r[2:] {
			if err := w2.append(x); err != nil {
				t.Fatal(err)
			}
		}
		w2.close()
		if got, _ := os.ReadFile(fresh); string(got) != subsFixture {
			t.Fatalf("%s fixture re-encoded differs:\n got %q\nwant %q", fx.name, got, subsFixture)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "subs.wal"), []byte(subsFixtureOlder), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newFakeServer(t, &fakeSource{}, func(c *Config) { c.StateDir = dir })
	t.Cleanup(func() { s.wal.close() })
	if rec := postSubmission(t, s, submission("https://m.example", validCode, "mallory")); rec.Code != http.StatusAccepted {
		t.Fatalf("mallory with a valid code after the older WAL = %d %q, want 202", rec.Code, rec.Body.String())
	}
	if rec := postSubmission(t, s, submission("https://m.example", "wrong", "mallory")); rec.Code != http.StatusForbidden {
		t.Fatalf("mallory with a wrong code after the older WAL = %d, want 403", rec.Code)
	}
}

// pendingCount reports the queue depth (test helper).
func (t *tenantTable) pendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// FuzzSubsWALOpen: arbitrary bytes on disk must never panic the
// recovery path — they either parse to a valid WAL or fail cleanly, and
// the recovered prefix is always appendable.
func FuzzSubsWALOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	hdr := journal.Frame([]byte(`{"schema":"prudentia.subs/1"}`))
	f.Add(hdr)
	f.Add(append(append([]byte{}, hdr...), journal.Frame([]byte(`{"op":"accept","seq":1,"tenant":"t","url":"u"}`))...))
	f.Add(append(append([]byte{}, hdr...), 0xde, 0xad, 0xbe))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "subs.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, rec, err := openSubsWAL(path, nil)
		if err != nil {
			return
		}
		defer w.close()
		tab := newTenantTable(4, 16)
		tab.restore(rec)
		if err := w.appendAccept(w.nextSeq(), "t", "https://x.example", "c"); err != nil {
			t.Fatalf("append to recovered WAL: %v", err)
		}
	})
}
