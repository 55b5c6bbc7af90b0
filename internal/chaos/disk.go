package chaos

// Disk-fault injection: the storage-layer counterpart of the trial
// fault families. A DiskPlan decides, per file operation and as a
// pure function of (Seed, operation counter), whether a write fails
// with an injected ENOSPC, whether an fsync tears the file's tail (the
// bytes the caller believed durable are cut before the sync reports
// failure — exactly what a power cut mid-flush leaves behind), and
// whether an fsync stalls (a saturated or dying device). FaultyFile
// wraps an *os.File with those decisions, and the durable writers — the
// submission WAL, the trial journal, the cycle checkpoint — accept the
// wrapper through their file seams, so recovery paths (torn-tail
// truncation, sticky-error degrade, atomic-rename fallback) are
// exercised continuously instead of trusted on faith.
//
// Unlike the per-seed trial faults, disk decisions consume a shared
// operation counter, so they depend on operation order and are NOT part
// of the byte-identical replay contract. Use them in chaos tests and
// soak runs, not golden traces.

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"prudentia/internal/journal"
)

// ErrInjectedDiskFull is the write error a DiskPlan injects: the
// watchdog's ENOSPC stand-in. Durable writers must treat it like any
// other disk failure — degrade, never corrupt.
var ErrInjectedDiskFull = errors.New("chaos: injected disk full (ENOSPC)")

// ErrInjectedSyncFail is the fsync error reported after an injected
// torn tail: the data the caller just wrote is partially gone and the
// sync did not complete.
var ErrInjectedSyncFail = errors.New("chaos: injected fsync failure (torn tail)")

// DiskPlan is a seed-deterministic disk-fault schedule. The zero value
// and a nil plan inject nothing.
type DiskPlan struct {
	// Seed scopes every decision; two plans with equal seeds and rates
	// fault the same operations in the same order.
	Seed uint64
	// WriteErrRate is the per-write probability of ErrInjectedDiskFull
	// (nothing is written when it fires).
	WriteErrRate float64
	// TornTailRate is the per-sync probability that the file's tail is
	// truncated by 1..tornMaxBytes bytes before the sync reports
	// ErrInjectedSyncFail.
	TornTailRate float64
	// StallRate is the per-sync probability of sleeping Stall before
	// the sync proceeds (a slow device, not a failure).
	StallRate float64
	// Stall is the injected fsync latency; 0 means 50ms.
	Stall time.Duration

	ops atomic.Uint64
}

// tornMaxBytes bounds how much a torn sync cuts.
const tornMaxBytes = 16

// Enabled reports whether any disk-fault class is armed. Safe on nil.
func (p *DiskPlan) Enabled() bool {
	return p != nil && (p.WriteErrRate > 0 || p.TornTailRate > 0 || p.StallRate > 0)
}

// decide draws one uniform [0,1) value for the next operation under the
// given salt, advancing the shared counter.
func (p *DiskPlan) decide(salt uint64) float64 {
	op := p.ops.Add(1)
	return unit(mix(p.Seed^op*0x9e3779b97f4a7c15), salt)
}

// writeErr decides whether the next write fails with injected ENOSPC.
func (p *DiskPlan) writeErr() bool {
	return p.WriteErrRate > 0 && p.decide(saltDiskWrite) < p.WriteErrRate
}

// syncFault decides the next sync's fate: a stall duration (0 = none)
// and how many tail bytes to tear (0 = clean sync).
func (p *DiskPlan) syncFault() (stall time.Duration, torn int) {
	if p.StallRate > 0 && p.decide(saltDiskStall) < p.StallRate {
		stall = p.Stall
		if stall <= 0 {
			stall = 50 * time.Millisecond
		}
	}
	if p.TornTailRate > 0 && p.decide(saltDiskTear) < p.TornTailRate {
		torn = 1 + int(mix(p.Seed^p.ops.Load()^saltDiskTear)%tornMaxBytes)
	}
	return stall, torn
}

// DefaultDiskPlan returns a representative all-classes disk-fault plan
// for chaos runs: faults fire often enough to exercise every recovery
// path within a short daemon session while leaving most operations
// clean.
func DefaultDiskPlan(seed uint64) *DiskPlan {
	return &DiskPlan{
		Seed:         seed,
		WriteErrRate: 0.05,
		TornTailRate: 0.05,
		StallRate:    0.05,
		Stall:        20 * time.Millisecond,
	}
}

// FaultyFile wraps an *os.File with a DiskPlan's decisions. It
// implements the file seam the durable writers accept (Write, Sync,
// Seek, Truncate, Close), so it can stand in for the raw file anywhere
// a WAL or checkpoint is written.
type FaultyFile struct {
	f    *os.File
	plan *DiskPlan
}

// WrapFile wraps f with the plan's fault decisions. With a nil or
// disabled plan the file is still wrapped (uniform call sites) but
// every operation passes straight through.
func WrapFile(f *os.File, plan *DiskPlan) *FaultyFile {
	return &FaultyFile{f: f, plan: plan}
}

// WrapFunc returns the storage wrapper that runs every file a durable
// writer opens through the plan, or nil (use files as-is) when the plan
// injects nothing.
func (p *DiskPlan) WrapFunc() journal.WrapFunc {
	if !p.Enabled() {
		return nil
	}
	return func(f *os.File) journal.File { return WrapFile(f, p) }
}

// Write delegates to the wrapped file unless the plan injects ENOSPC,
// in which case nothing is written.
func (ff *FaultyFile) Write(p []byte) (int, error) {
	if ff.plan.Enabled() && ff.plan.writeErr() {
		return 0, fmt.Errorf("%w (%d bytes dropped)", ErrInjectedDiskFull, len(p))
	}
	return ff.f.Write(p)
}

// Sync applies the plan's sync fate: an injected stall sleeps first; an
// injected torn tail truncates up to tornMaxBytes from the file's end
// (never past offset zero), syncs the truncation so the tear is what
// recovery actually reads, and reports ErrInjectedSyncFail. A clean
// decision delegates to the real fsync.
func (ff *FaultyFile) Sync() error {
	if !ff.plan.Enabled() {
		return ff.f.Sync()
	}
	stall, torn := ff.plan.syncFault()
	if stall > 0 {
		time.Sleep(stall)
	}
	if torn > 0 {
		st, err := ff.f.Stat()
		if err == nil && st.Size() > 0 {
			cut := int64(torn)
			if cut > st.Size() {
				cut = st.Size()
			}
			if terr := ff.f.Truncate(st.Size() - cut); terr == nil {
				ff.f.Sync()
				return fmt.Errorf("%w (%d bytes torn)", ErrInjectedSyncFail, cut)
			}
		}
		// Could not tear (stat/truncate failed): fall through to a real
		// sync rather than faking a failure the disk never had.
	}
	return ff.f.Sync()
}

// Seek delegates to the wrapped file.
func (ff *FaultyFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

// Truncate delegates to the wrapped file.
func (ff *FaultyFile) Truncate(size int64) error { return ff.f.Truncate(size) }

// Close delegates to the wrapped file.
func (ff *FaultyFile) Close() error { return ff.f.Close() }
