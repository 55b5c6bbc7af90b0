package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
	"prudentia/internal/obs"
)

// CheckpointSchema identifies the checkpoint format; bump on breaking
// change. Checkpoints written before the field existed carry no schema
// and are accepted as version 1.
const CheckpointSchema = "prudentia.checkpoint/1"

// ErrFutureCheckpoint marks a checkpoint written by a newer schema
// version than this build understands. Resuming from it could silently
// misparse fields this build does not know about, so it is rejected
// outright instead of being half-read.
var ErrFutureCheckpoint = journal.ErrFutureVersion

// Checkpoint is the header of an in-progress watchdog cycle: the
// decisions a resumed cycle must not re-litigate and the one piece of
// state it cannot recompute, flushed when one of them changes — a few
// service names, plus one integer per pair under adaptive budgets; no
// outcome, no sketch. Everything a cycle has done — calibrations,
// canary probes, screening, pair trials — lives in the trial journal
// beside it and comes back by replay (Watchdog.RunCycle), so there is
// one recovery routine and this file is only where it starts.
type Checkpoint struct {
	// Schema is CheckpointSchema; SaveCheckpoint stamps it and
	// LoadCheckpoint rejects future versions (empty is accepted for
	// pre-schema checkpoints).
	Schema string `json:"schema,omitempty"`
	// Cycle is the 1-based cycle number the state belongs to; it scopes
	// the per-cycle seed offset, so resume must reuse it.
	Cycle int `json:"cycle"`
	// Breakers snapshots the per-service circuit-breaker state at cycle
	// start — the history earlier cycles left, which no journal of this
	// cycle holds. A resumed cycle restores it and lets the replayed work
	// re-score it on the ordinary release path.
	Breakers []obs.BreakerInfo `json:"breakers,omitempty"`
	// Budget[si] maps pairKey → the adaptive trial ceiling allocated by
	// setting si's screening pass (nil until that setting's screening
	// ran). It is the allocation *decision record*: a resumed adaptive
	// cycle takes it verbatim instead of re-screening, so the stopping
	// ceilings — and with them every stopping decision — cannot be
	// re-litigated mid-cycle. The whole slice is nil on fixed-budget
	// runs and on checkpoints written by pre-adaptive builds —
	// HasBudgetState distinguishes the two.
	Budget []map[string]int `json:"budget,omitempty"`
	// OpenServices[si] records the admission decision made when setting
	// si's matrix started: the sorted list of services whose breakers
	// were open (possibly empty but non-nil once the setting started).
	// Resume takes the stored decision verbatim, so an interrupted cycle
	// cannot re-litigate admission and diverge from the uninterrupted
	// run.
	OpenServices [][]string `json:"open_services,omitempty"`
}

// HasBudgetState reports whether the checkpoint carries adaptive
// budget allocations — i.e. was written by an adaptive-mode run of a
// build that knows the field. Resuming an adaptive run from a
// checkpoint without budget state would re-screen and could allocate
// different ceilings than the interrupted run used; callers must
// either fall back to fixed budgets (cmd/prudentia does, with a
// warning) or refuse (RunCycle returns ErrCheckpointNoBudget).
func (cp *Checkpoint) HasBudgetState() bool { return cp.Budget != nil }

// ErrCheckpointNoBudget marks an attempt to resume an adaptive cycle
// from a pre-adaptive checkpoint (no budget state). See
// Checkpoint.HasBudgetState.
var ErrCheckpointNoBudget = errors.New("checkpoint carries no adaptive budget state; resume with fixed trials")

// SaveCheckpoint writes the checkpoint atomically and durably
// (journal.ReplaceFile): a crash mid-write never truncates the previous
// good checkpoint, and the replacement survives a machine crash too.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	return SaveCheckpointDisk(path, cp, nil)
}

// SaveCheckpointDisk is SaveCheckpoint with disk-fault injection: the
// temp file's writes and fsync run through the chaos plan (nil = no
// injection), so an injected ENOSPC or torn-at-fsync tear aborts before
// the rename and the previous good checkpoint stays intact — exactly
// the atomic-save property the chaos plan exists to prove.
func SaveCheckpointDisk(path string, cp *Checkpoint, disk *chaos.DiskPlan) error {
	cp.Schema = CheckpointSchema
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	if err := journal.ReplaceFile(path, data, disk.WrapFunc()); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The
// schema is probed before the full parse, so a future-version file —
// whose body this build might misread — is rejected with a clear
// ErrFutureCheckpoint rather than a confusing field error. The
// "pairs" and "calibration" members older builds wrote are ignored:
// that work replays from the journal or re-simulates to the same bytes.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	// Empty is accepted: checkpoints predating the field are version 1
	// by definition.
	if probe.Schema != "" {
		if err := journal.CheckSchema(path, probe.Schema, CheckpointSchema); err != nil {
			return nil, fmt.Errorf("core: checkpoint %w", err)
		}
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	if cp.Cycle <= 0 {
		return nil, fmt.Errorf("core: checkpoint %s has invalid cycle %d", path, cp.Cycle)
	}
	return cp, nil
}
