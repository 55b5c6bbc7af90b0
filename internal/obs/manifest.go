package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"prudentia/internal/journal"
)

// ManifestSchema identifies the manifest format; bump on breaking change.
const ManifestSchema = "prudentia.manifest/1"

// Manifest is the post-hoc debugging record a completed (or interrupted)
// cycle leaves behind: enough to re-run it exactly (seed, settings,
// catalog, revision) plus the full metric snapshot to reconcile against
// the published report. GeneratedAt and the "wall" metrics inside
// Metrics are the only fields that vary between identical seeded runs.
type Manifest struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`

	Cycle    int      `json:"cycle"`
	BaseSeed uint64   `json:"base_seed"`
	Workers  int      `json:"workers"`
	Services []string `json:"services"`
	// Settings carries the caller's network-setting configs verbatim
	// (obs stays dependency-free, so the concrete type lives upstream).
	Settings     any  `json:"settings"`
	ChaosEnabled bool `json:"chaos_enabled"`
	// Recipe carries the caller's resolved per-setting options verbatim
	// (core.Recipe): what the fields above leave out of "re-run it exactly".
	Recipe any `json:"recipe,omitempty"`
	// AdaptiveEnabled records whether the run used adaptive trial
	// budgets (omitted on fixed-budget runs so their manifests are
	// unchanged byte for byte).
	AdaptiveEnabled bool `json:"adaptive_enabled,omitempty"`
	Interrupted     bool `json:"interrupted"`

	// Breakers is the per-service circuit-breaker state at cycle end
	// (empty when the supervision layer is disabled or all healthy
	// services stayed scoreless).
	Breakers []BreakerInfo `json:"breakers,omitempty"`
	// Journal summarizes the cycle's write-ahead trial journal, when one
	// was enabled.
	Journal *JournalInfo `json:"journal,omitempty"`

	Metrics Snapshot `json:"metrics"`
}

// BreakerInfo is one service's circuit-breaker state, as carried in the
// manifest and in cycle checkpoints (obs stays dependency-free, so the
// breaker implementation lives upstream in core).
type BreakerInfo struct {
	Service string `json:"service"`
	// State is "closed", "half-open", or "open".
	State string `json:"state"`
	// Score is the accumulated health penalty; closed breakers trip
	// open at the configured threshold.
	Score float64 `json:"score"`
}

// JournalInfo summarizes a cycle's write-ahead trial journal.
type JournalInfo struct {
	Path string `json:"path"`
	// Records/Bytes count what this process appended.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Replayed counts attempts served from the recovered journal
	// instead of being re-simulated.
	Replayed int64 `json:"replayed"`
	// Recovered counts intact records found on disk at open.
	Recovered int64 `json:"recovered"`
	// TornBytes is how much torn tail recovery truncated.
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// NewManifest stamps schema, time, toolchain, and VCS revision.
func NewManifest() Manifest {
	return Manifest{
		Schema:      ManifestSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GitRevision: GitRevision(),
		GoVersion:   runtime.Version(),
	}
}

// GitRevision returns the VCS revision baked into the binary (requires a
// -buildvcs build; "unknown" otherwise, e.g. under plain `go test`). A
// locally modified tree is marked with a "+dirty" suffix.
func GitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Write stores the manifest atomically and durably
// (journal.ReplaceFile), so neither a crash mid-write nor a machine
// crash after it leaves a truncated manifest next to a good timeline.
func (m Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	if err := journal.ReplaceFile(path, append(data, '\n'), nil); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}
