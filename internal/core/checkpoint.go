package core

import (
	"encoding/json"
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

// Checkpoint is the header of an in-progress watchdog cycle: what
// replay cannot recompute, and nothing else — the cycle number and the
// breaker state the cycle started from. It is flushed at cycle start
// and again on interrupt. Everything the cycle has done — canary
// probes, calibrations, screening, pair trials — lives in the trial
// journal beside it, and every decision made from that work (which
// services a setting admits, each adaptive budget) is recomputed from
// it by replay (Watchdog.RunCycle), so there is one recovery routine
// and this file is only where it starts.
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
}

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
// journal.ErrFutureVersion rather than a confusing field error. The members
// older builds wrote beside the header — "pairs" and "calibration",
// "open_services" and "budget" — are ignored: that work replays from
// the journal or re-simulates to the same bytes, and those decisions
// are recomputed from it.
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
