package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/obs"
)

// buildMux wires every route once; all per-route state (instrument
// handles, artifact selectors) is resolved here, never per request.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/report", s.artifactHandler(s.mReport, cycleArtifact(func(c *cycleArtifacts) *artifact { return &c.report })))
	mux.HandleFunc("/api/v1/report.txt", s.artifactHandler(s.mReportText, cycleArtifact(func(c *cycleArtifacts) *artifact { return &c.reportText })))
	mux.HandleFunc("/api/v1/heatmap", s.artifactHandler(s.mHeatmap, cycleArtifact(func(c *cycleArtifacts) *artifact { return &c.heatmap })))
	mux.HandleFunc("/api/v1/faults", s.artifactHandler(s.mFaults, cycleArtifact(func(c *cycleArtifacts) *artifact { return &c.faults })))
	// The retained-cycles index is itself a per-publish artifact, under
	// the same caching protocol; it has no ?cycle=N form.
	mux.HandleFunc("/api/v1/cycles", s.artifactHandler(s.mCycles, func(c *cycleCache, _ string) *artifact { return &c.index }))
	mux.HandleFunc("/api/v1/submissions", s.submissionsHandler())
	mux.HandleFunc("/metrics", s.metricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			// Shutdown has begun: the listener still accepts (for
			// DrainGrace) but new traffic should go elsewhere.
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		if s.cache.Load() == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "no completed cycle yet\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	s.mux = mux
}

// cycleArtifact adapts a per-cycle artifact selector to artifactHandler:
// the latest cycle when there is no query string, the ?cycle=N one from
// the history ring otherwise (nil if it is not retained).
func cycleArtifact(sel func(*cycleArtifacts) *artifact) func(*cycleCache, string) *artifact {
	return func(c *cycleCache, rawQuery string) *artifact {
		ca := c.latest
		if rawQuery != "" {
			if ca = historical(c, rawQuery); ca == nil {
				return nil
			}
		}
		return sel(ca)
	}
}

// readMethod reports whether r is a GET or a HEAD, answering 405 if not.
func readMethod(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// writeBody finishes a 200 on the read side, a cached artifact or the
// live exposition alike: an explicit Content-Length (so the reply is
// never chunked and a HEAD carries the length), the status, and the
// body in one Write.
func writeBody(w http.ResponseWriter, r *http.Request, clen []string, body []byte) {
	w.Header()["Content-Length"] = clen
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

// artifactHandler serves one precomputed artifact, picked from the
// current cache and the request's query string. Without a query string
// it performs zero allocations: one atomic load, three precomputed
// header-slice assignments, one string compare for ETag revalidation,
// one body write. ?cycle=N takes the slow path through the history
// ring.
func (s *Server) artifactHandler(ri obs.RouteInstruments, pick func(c *cycleCache, rawQuery string) *artifact) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri.Requests.Inc()
		if !readMethod(w, r) {
			return
		}
		c := s.cache.Load()
		if c == nil {
			ri.Misses.Inc()
			http.Error(w, "no completed cycle yet", http.StatusServiceUnavailable)
			return
		}
		a := pick(c, r.URL.RawQuery)
		if a == nil {
			ri.Misses.Inc()
			http.Error(w, "no such completed cycle", http.StatusServiceUnavailable)
			return
		}
		h := w.Header()
		h["Etag"] = a.etagV
		h["Cache-Control"] = a.cctl
		h["Content-Type"] = a.ctype
		c.setStaleHeaders(h)
		if r.Header.Get("If-None-Match") == a.etag {
			ri.NotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
		} else {
			ri.CacheHits.Inc()
			writeBody(w, r, a.clen, a.body)
		}
		ri.WallLatency.Observe(time.Since(start).Seconds())
	}
}

// metricsHandler serves the registry's live state in the Prometheus
// text format: one walk of the exposition plan into a pooled buffer,
// sent the way an artifact is. Nothing of the text is kept between
// requests, so a counter incremented before a scrape is in that scrape;
// and because the body changes from one request to the next, the reply
// carries no ETag. A nil registry serves an empty exposition.
func (s *Server) metricsHandler() http.HandlerFunc {
	ctype := []string{obs.PrometheusContentType}
	bufs := sync.Pool{New: func() any { return new([]byte) }}
	return func(w http.ResponseWriter, r *http.Request) {
		if !readMethod(w, r) {
			return
		}
		buf := bufs.Get().(*[]byte)
		*buf = s.cfg.Registry.AppendPrometheus((*buf)[:0])
		w.Header()["Content-Type"] = ctype
		writeBody(w, r, []string{strconv.Itoa(len(*buf))}, *buf)
		bufs.Put(buf)
	}
}

// historical resolves a ?cycle=N query against the retained ring
// (allocation cost is fine here — it is the explicitly non-hot path).
func historical(c *cycleCache, rawQuery string) *cycleArtifacts {
	q, err := parseCycleQuery(rawQuery)
	if err != nil {
		return nil
	}
	return c.byCycle(q)
}

// parseCycleQuery accepts exactly "cycle=N".
func parseCycleQuery(rawQuery string) (int, error) {
	const prefix = "cycle="
	if len(rawQuery) <= len(prefix) || rawQuery[:len(prefix)] != prefix {
		return 0, fmt.Errorf("serve: unsupported query %q", rawQuery)
	}
	return strconv.Atoi(rawQuery[len(prefix):])
}

// submissionRequest is the POST /api/v1/submissions body.
type submissionRequest struct {
	// URL is the page to model and admit into future cycles.
	URL string `json:"url"`
	// AccessCode must be one of the codes Appendix A publishes
	// (core.CheckSubmission); a wrong one is refused with 403 on
	// arrival, before it is logged or queued.
	AccessCode string `json:"access_code"`
	// Tenant identifies the submitting party for budgeting; empty means
	// "anonymous" (all anonymous submitters share one bucket).
	Tenant string `json:"tenant"`
}

// submissionsHandler queues tenant submissions for the next cycle
// boundary: it refuses a wrong access code at the door, then enforces
// per-tenant token budgets and the queue cap.
func (s *Server) submissionsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req submissionRequest
		body := http.MaxBytesReader(w, r.Body, 4096)
		err := json.NewDecoder(body).Decode(&req)
		if err == nil {
			// A body over the limit is refused whole, even when its
			// first JSON value ends inside it.
			_, err = io.Copy(io.Discard, body)
		}
		if err != nil {
			s.subsDenied.Inc()
			http.Error(w, "malformed submission body", http.StatusBadRequest)
			return
		}
		if req.URL == "" {
			s.subsDenied.Inc()
			http.Error(w, "submission requires a url", http.StatusBadRequest)
			return
		}
		if err := core.CheckSubmission(req.URL, req.AccessCode); err != nil {
			// Refused before admit: no WAL record, no token, no queue
			// slot, and the engine never sees it.
			s.subsDenied.Inc()
			http.Error(w, "invalid access code", http.StatusForbidden)
			return
		}
		tenant := req.Tenant
		if tenant == "" {
			tenant = "anonymous"
		}
		verdict, pos := s.tenants.admit(tenant, req.URL, req.AccessCode)
		w.Header().Set("Content-Type", "application/json")
		switch verdict {
		case admitQueued:
			s.subsAccepted.Inc()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "{\n  \"status\": \"queued\",\n  \"position\": %d,\n  \"applies_after_cycle\": %d\n}\n", pos, s.Latest())
		case admitExhausted:
			// Budgets refill at the next cycle boundary, so that is the
			// honest earliest retry time.
			s.subsDenied.Inc()
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, "{\n  \"status\": \"rate_limited\",\n  \"error\": \"per-cycle submission budget exhausted\"\n}\n")
		case admitQueueFull:
			s.subsDenied.Inc()
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\n  \"status\": \"queue_full\",\n  \"error\": \"submission queue at capacity\"\n}\n")
		case admitWALFail:
			// The durable accept record could not be written; a 202
			// without it would promise durability the daemon cannot
			// deliver. Compaction at the next cycle boundary rewrites the
			// WAL and usually clears the degradation.
			s.subsDenied.Inc()
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\n  \"status\": \"persistence_unavailable\",\n  \"error\": \"submission store cannot accept durable writes; retry after the next cycle\"\n}\n")
		}
	}
}
