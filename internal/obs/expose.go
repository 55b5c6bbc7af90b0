package obs

import (
	"encoding/json"
	"io"
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

// WriteJSON emits the snapshot as indented JSON (map keys are sorted by
// encoding/json, so the output is deterministic).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
