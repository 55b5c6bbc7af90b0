package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"prudentia/internal/journal"
)

// This file persists each published cycle's artifacts to the daemon's
// state directory and rehydrates the history ring from them on restart:
//
//	<state-dir>/cycles/<N>/report.json
//	                       report.txt
//	                       heatmap.html
//	                       faults.jsonl
//	                       meta.json
//
// A cycle directory is written as a temp directory (files fsynced) and
// renamed into place, so a crash mid-publish leaves either the complete
// cycle or no trace of it — never a half-written one. Rehydration reads
// the newest History complete directories; ETags re-derive from the
// bytes (FNV-64a), so a rehydrated artifact revalidates exactly like
// the original publication did.
//
// Ordering contract with the submission WAL: a cycle's artifacts are
// durable on disk *before* its commit record is appended (publish runs
// before cycleEnd), so a committed apply always has its including
// cycle's artifacts to show for it.

// cycleMetaSchema stamps each cycle directory's meta.json.
const cycleMetaSchema = "prudentia.cycle-meta/1"

// cycleMeta is the per-cycle-directory manifest. Its presence marks the
// directory complete (it is written last, before the rename).
type cycleMeta struct {
	Schema   string `json:"schema"`
	Cycle    int    `json:"cycle"`
	Services int    `json:"services"`
}

// cycleFile names the artifact files inside a cycle directory, paired
// with their content types for rehydration.
var cycleFiles = []struct {
	name  string
	ctype string
}{
	{"report.json", "application/json"},
	{"report.txt", "text/plain; charset=utf-8"},
	{"heatmap.html", "text/html; charset=utf-8"},
	{"faults.jsonl", "application/x-ndjson"},
}

// cyclesRoot is the artifacts subdirectory of a state dir.
func cyclesRoot(stateDir string) string { return filepath.Join(stateDir, "cycles") }

// saveCycleDir persists one published cycle: temp directory, each file
// (meta.json last) written durably through journal.ReplaceFile (under
// the -chaos-disk plan when wrap is non-nil), atomic rename to
// cycles/<N>, parent fsync.
func saveCycleDir(stateDir string, ca *cycleArtifacts, wrap journal.WrapFunc) error {
	root := cyclesRoot(stateDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	tmp, err := os.MkdirTemp(root, ".tmp-cycle-*")
	if err != nil {
		return fmt.Errorf("serve: cycle temp dir: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	bodies := [][]byte{ca.report.body, ca.reportText.body, ca.heatmap.body, ca.faults.body}
	for i, cf := range cycleFiles {
		if err := journal.ReplaceFile(filepath.Join(tmp, cf.name), bodies[i], wrap); err != nil {
			return err
		}
	}
	meta, err := json.Marshal(cycleMeta{Schema: cycleMetaSchema, Cycle: ca.cycle, Services: ca.services})
	if err != nil {
		return fmt.Errorf("serve: marshal cycle meta: %w", err)
	}
	if err := journal.ReplaceFile(filepath.Join(tmp, "meta.json"), meta, wrap); err != nil {
		return err
	}
	final := filepath.Join(root, strconv.Itoa(ca.cycle))
	// A leftover directory from a previous run of the same cycle number
	// (e.g. the cycle re-ran after a crash before its WAL commit) is
	// replaced wholesale.
	os.RemoveAll(final)
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("serve: commit cycle dir: %w", err)
	}
	_ = journal.SyncDir(root) // best-effort, see SyncDir
	return nil
}

// loadCycleDirs rehydrates up to history complete cycle directories
// (the newest ones), ascending by cycle number. Incomplete directories
// — missing files, unreadable meta — are skipped, not fatal: the
// rename protocol makes them possible only through outside
// interference, and serving the cycles that do parse beats refusing to
// start. Leftover temp directories are swept.
func loadCycleDirs(stateDir string, history int) ([]*cycleArtifacts, error) {
	root := cyclesRoot(stateDir)
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read state dir: %w", err)
	}
	var nums []int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-cycle-") {
			os.RemoveAll(filepath.Join(root, e.Name()))
			continue
		}
		if !e.IsDir() {
			continue
		}
		if n, err := strconv.Atoi(e.Name()); err == nil && n > 0 {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	if len(nums) > history {
		nums = nums[len(nums)-history:]
	}
	var out []*cycleArtifacts
	for _, n := range nums {
		ca, err := loadOneCycleDir(filepath.Join(root, strconv.Itoa(n)), n)
		if err != nil {
			continue
		}
		out = append(out, ca)
	}
	return out, nil
}

// loadOneCycleDir reads one cycle directory back into servable
// artifacts, re-deriving ETags from the bytes.
func loadOneCycleDir(dir string, cycle int) (*cycleArtifacts, error) {
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta cycleMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("serve: parse %s/meta.json: %w", dir, err)
	}
	if meta.Schema != cycleMetaSchema || meta.Cycle != cycle {
		return nil, fmt.Errorf("serve: %s meta mismatch (schema %q, cycle %d)", dir, meta.Schema, meta.Cycle)
	}
	ca := &cycleArtifacts{cycle: cycle, services: meta.Services}
	arts := []*artifact{&ca.report, &ca.reportText, &ca.heatmap, &ca.faults}
	for i, cf := range cycleFiles {
		body, err := os.ReadFile(filepath.Join(dir, cf.name))
		if err != nil {
			return nil, err
		}
		*arts[i] = newArtifact(body, cf.ctype)
	}
	return ca, nil
}

// pruneCycleDirs removes persisted cycles older than keepFrom
// (best-effort; eviction mirrors the in-memory history ring so disk use
// stays O(History)).
func pruneCycleDirs(stateDir string, keepFrom int) {
	root := cyclesRoot(stateDir)
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if n, err := strconv.Atoi(e.Name()); err == nil && n > 0 && n < keepFrom {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
}
