package obs

import (
	"encoding/json"
	"io"
	"strings"
)

// HistogramSnapshot is one histogram's frozen state. Counts has one
// entry per bound plus a final overflow (+Inf) bucket; entries are
// per-bucket (non-cumulative), unlike the Prometheus text's.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a registry's frozen state: the JSON exposition, the
// manifest's metrics block and the determinism tests' comparand. The
// Prometheus text format is not rendered from it; see
// Registry.AppendPrometheus.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// StripWallClock returns a copy of the snapshot without wall-clock
// metrics — by convention every nondeterministic (timing-of-this-host)
// metric carries "wall" in its name. What remains is a pure function of
// the seeded work performed, so it must be identical across reruns and
// worker counts; the determinism tests compare exactly this.
func (s Snapshot) StripWallClock() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for k, v := range s.Counters {
		if !strings.Contains(k, "wall") {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if !strings.Contains(k, "wall") {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if !strings.Contains(k, "wall") {
			out.Histograms[k] = v
		}
	}
	return out
}

// WriteJSON emits the snapshot as indented JSON (map keys are sorted by
// encoding/json, so the output is deterministic).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Equal reports whether two snapshots carry identical metric state.
func (s Snapshot) Equal(o Snapshot) bool {
	a, err1 := json.Marshal(s)
	b, err2 := json.Marshal(o)
	return err1 == nil && err2 == nil && string(a) == string(b)
}
