// Package trace exports per-experiment artifacts in the spirit of the
// data the Prudentia website publishes for every experiment (§7):
// bottleneck queue logs and per-service throughput series as CSV, and
// the robustness fault ledger as JSON Lines, for offline analysis.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
)

// WriteQueueCSV emits the queue occupancy series as CSV
// (time_s,total,svc0,svc1) — the signal in Fig 8.
func WriteQueueCSV(w io.Writer, samples []netem.OccupancySample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "total_pkts", "svc0_pkts", "svc1_pkts"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64),
			strconv.Itoa(s.Total),
			strconv.Itoa(s.PerService[0]),
			strconv.Itoa(s.PerService[1]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRateCSV emits a per-service throughput series as CSV
// (time_s,svc0_mbps,svc1_mbps) — the signal in Fig 4.
func WriteRateCSV(w io.Writer, points []obs.RatePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "svc0_mbps", "svc1_mbps"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			strconv.FormatFloat(p.At.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(p.Mbps[0], 'f', 4, 64),
			strconv.FormatFloat(p.Mbps[1], 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FaultLedger accumulates robustness events across cycles through
// Watchdog.OnFault. A cycle's own ledger is CycleResult.Faults, which is
// what the CLI and the daemon publish; the accumulator remains for the
// benchmark harness. Record is safe for concurrent use; read Events only
// after the runs feeding the ledger have finished.
type FaultLedger struct {
	mu     sync.Mutex
	Events []core.FaultEvent
}

// Record appends one event (the OnFault hook).
func (l *FaultLedger) Record(ev core.FaultEvent) {
	l.mu.Lock()
	l.Events = append(l.Events, ev)
	l.mu.Unlock()
}

// Summary is Summary of the events recorded so far.
func (l *FaultLedger) Summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Summary(l.Events)
}

// Summary tallies events by kind as a stable one-line string
// ("corrupt=2 discard=1 retry=3 ...", empty for no events).
func Summary(events []core.FaultEvent) string {
	counts := make(map[string]int)
	for _, ev := range events {
		counts[ev.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b []byte
	for i, k := range kinds {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, counts[k])...)
	}
	return string(b)
}

// WriteFaultsJSONL emits the robustness ledger as JSON Lines, one event
// per line — the same framing as the obs cycle timeline, so the two
// files can be merged or tailed with the same tooling.
func WriteFaultsJSONL(w io.Writer, events []core.FaultEvent) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
