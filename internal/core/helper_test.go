package core

import (
	"maps"
	"strings"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
)

func ccaV() cca.BBRVariant { return cca.BBRLinux415() }

// testMatrix builds one setting's matrix over w, as RunCycle does, with
// opts resolved for net; w supplies the catalog and the hooks.
func testMatrix(w *Watchdog, net netem.Config, opts SchedulerOptions) *matrix {
	return &matrix{w: w, net: net, opts: opts.withDefaults(net)}
}

// releasedLabel returns the "A vs B" label of a matrix Progress line,
// which the matrix emits once per pair as it releases it.
func releasedLabel(line string) string {
	label, _, _ := strings.Cut(strings.TrimPrefix(line, "pair "), ": ")
	return label
}

// deterministic drops the metrics that time this host: by convention each
// carries "wall" in its name. What remains is a pure function of the
// seeded work, so reruns and worker counts must agree on it.
func deterministic(s obs.Snapshot) obs.Snapshot {
	wall := func(name string) bool { return strings.Contains(name, "wall") }
	maps.DeleteFunc(s.Counters, func(k string, _ int64) bool { return wall(k) })
	maps.DeleteFunc(s.Gauges, func(k string, _ float64) bool { return wall(k) })
	maps.DeleteFunc(s.Histograms, func(k string, _ obs.HistogramSnapshot) bool { return wall(k) })
	return s
}
