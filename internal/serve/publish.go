package serve

import (
	"bytes"
	"encoding/json"

	"prudentia/internal/core"
	"prudentia/internal/report"
	"prudentia/internal/trace"
)

// CyclesSchema stamps the /api/v1/cycles index document.
const CyclesSchema = "prudentia.cycles/1"

// CyclesDoc is the retained-history index served at /api/v1/cycles.
type CyclesDoc struct {
	Schema string `json:"schema"`
	// Latest is the most recent completed cycle.
	Latest int `json:"latest"`
	// Degraded is true while the daemon is serving despite cycle
	// failures: the artifacts are the last good cycle's, not the newest
	// scheduled one. Omitted (false) in healthy operation so healthy
	// output is byte-identical to pre-degraded-mode builds.
	Degraded bool `json:"degraded,omitempty"`
	// StaleCycles counts consecutive failed cycles since Latest was
	// published (0 when healthy).
	StaleCycles int `json:"stale_cycles,omitempty"`
	// Retained lists every cycle still addressable via ?cycle=N, oldest
	// first.
	Retained []CycleEntry `json:"retained"`
}

// CycleEntry is one retained cycle's index row.
type CycleEntry struct {
	Cycle int `json:"cycle"`
	// Services is the catalog size when the cycle's artifacts were
	// rendered.
	Services int `json:"services"`
	// ReportETag is the strong validator of the cycle's JSON report —
	// published here so clients can revalidate a historical cycle
	// without fetching it.
	ReportETag string `json:"report_etag"`
}

// buildCycleCache freezes a history ring (ascending, non-empty) into a
// servable cache: index document rendered, staleness headers
// precomputed. Shared by the publish path and restart rehydration, so a
// rehydrated daemon serves byte-identical artifacts and index to the
// one that originally published them.
func buildCycleCache(all []*cycleArtifacts, stale int) (*cycleCache, error) {
	latest := all[len(all)-1]
	doc := CyclesDoc{Schema: CyclesSchema, Latest: latest.cycle, Degraded: stale > 0, StaleCycles: stale}
	for _, c := range all {
		doc.Retained = append(doc.Retained, CycleEntry{
			Cycle:      c.cycle,
			Services:   c.services,
			ReportETag: c.report.etag,
		})
	}
	var idx bytes.Buffer
	enc := json.NewEncoder(&idx)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	c := &cycleCache{
		latest: latest,
		all:    all,
		index:  newArtifact(idx.Bytes(), "application/json"),
		stale:  stale,
	}
	c.precomputeStaleHeaders()
	return c, nil
}

// publish renders every artifact for a completed cycle, persists them
// to the state directory (when configured), and swaps the new
// cycleCache in atomically. Runs on the scheduler goroutine only;
// readers observe either the previous cache or the complete new one,
// never a mix. Nothing is served that is not already durable: a
// persistence failure returns before the swap, leaving the previous
// cache (and the disk) untouched.
func (s *Server) publish(cr *core.CycleResult) error {
	settings := s.cfg.Source.SettingConfigs()
	svcs := s.cfg.Source.Catalog()

	jsonBody, err := report.CycleJSON(cr, settings, svcs)
	if err != nil {
		return err
	}
	text := report.ReportText(cr, settings, svcs, trace.Summary(cr.Faults))
	var faultsBody bytes.Buffer
	if err := trace.WriteFaultsJSONL(&faultsBody, cr.Faults); err != nil {
		return err
	}

	ca := &cycleArtifacts{
		cycle:      cr.Cycle,
		services:   len(svcs),
		report:     newArtifact(jsonBody, "application/json"),
		reportText: newArtifact([]byte(text), "text/plain; charset=utf-8"),
		heatmap:    newArtifact(report.HeatmapHTML(cr, settings, svcs), "text/html; charset=utf-8"),
		faults:     newArtifact(faultsBody.Bytes(), "application/x-ndjson"),
	}
	if s.cfg.StateDir != "" {
		if err := saveCycleDir(s.cfg.StateDir, ca, s.cfg.DiskChaos.WrapFunc()); err != nil {
			return err
		}
	}

	var all []*cycleArtifacts
	if old := s.cache.Load(); old != nil {
		all = append(all, old.all...)
	}
	all = append(all, ca)
	if len(all) > s.cfg.History {
		all = append([]*cycleArtifacts(nil), all[len(all)-s.cfg.History:]...)
	}

	cache, err := buildCycleCache(all, 0)
	if err != nil {
		return err
	}
	s.cache.Store(cache)
	s.cyclesPublished.Inc()
	s.readyGauge.Set(1)
	s.degradedGauge.Set(0)
	s.staleGauge.Set(0)
	if s.cfg.StateDir != "" {
		pruneCycleDirs(s.cfg.StateDir, all[0].cycle)
	}
	return nil
}
