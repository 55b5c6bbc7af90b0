package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the byte-identity oracle of Registry.AppendPrometheus:
// the snapshot-based text writer the /metrics route and -metrics-out
// used to call, kept verbatim with its own helpers (it shares none with
// the plan encoder) so the differential test compares two independent
// renderings. It renders a Snapshot's own Count for `_count`, which for
// a quiescent registry equals the cumulative +Inf bucket the encoder
// writes.

// fmtFloat renders a float the way Prometheus expects.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// baseName strips an optional {label="value"} suffix from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitName separates a metric name into its base and the inner label
// list ("" when unlabeled): `h{route="x"}` → `h`, `route="x"`.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// histSample renders one histogram sample name: the suffix goes on the
// base name and extra labels merge with any the metric already carries,
// so labeled histograms expose `base_bucket{route="x",le="1"}` rather
// than the malformed `base{route="x"}_bucket{le="1"}`.
func histSample(name, suffix, extraLabel string) string {
	base, labels := splitName(name)
	switch {
	case labels == "" && extraLabel == "":
		return base + suffix
	case labels == "":
		return base + suffix + "{" + extraLabel + "}"
	case extraLabel == "":
		return base + suffix + "{" + labels + "}"
	}
	return base + suffix + "{" + labels + "," + extraLabel + "}"
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4), with metric families in sorted order. Names
// may carry a literal {label="value"} suffix, emitted verbatim; TYPE
// headers are written once per family.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	writeType := func(name, kind string) error {
		base := baseName(name)
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := writeType(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := writeType(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		if err := writeType(name, "histogram"); err != nil {
			return err
		}
		h := s.Histograms[name]
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmtFloat(h.Bounds[i])
			}
			sample := histSample(name, "_bucket", fmt.Sprintf("le=%q", le))
			if _, err := fmt.Fprintf(w, "%s %d\n", sample, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
			histSample(name, "_sum", ""), fmtFloat(h.Sum),
			histSample(name, "_count", ""), h.Count); err != nil {
			return err
		}
	}
	return nil
}
