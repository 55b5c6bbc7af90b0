package serve

import (
	"hash/fnv"
	"strconv"
)

// An artifact is one immutable, fully precomputed HTTP response body:
// bytes, strong ETag, and ready-made header value slices. Everything a
// request needs is materialized once at publish time so the read path
// does no hashing, no formatting, and no allocation — it assigns three
// precomputed slices into the header map, compares one string, and
// writes one byte slice.
type artifact struct {
	body []byte
	// etag is the strong validator: a quoted FNV-64a digest of body.
	// Identical cycle bytes ⇒ identical ETag, across restarts and hosts.
	etag string
	// Precomputed header values (the []string form http.Header stores),
	// assigned by key to avoid the canonicalization work and per-call
	// allocation of Header.Set.
	etagV []string
	ctype []string
	cctl  []string
	clen  []string
}

// cacheControl instructs clients to cache but revalidate: the body for
// one cycle never changes (strong ETag ⇒ cheap 304s), yet a new cycle
// may be published at any moment.
const cacheControl = "public, max-age=0, must-revalidate"

// newArtifact freezes body into a servable artifact.
func newArtifact(body []byte, contentType string) artifact {
	h := fnv.New64a()
	h.Write(body)
	etag := `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
	return artifact{
		body:  body,
		etag:  etag,
		etagV: []string{etag},
		ctype: []string{contentType},
		cctl:  []string{cacheControl},
		clen:  []string{strconv.Itoa(len(body))},
	}
}

// cycleArtifacts is every rendering of one completed cycle.
type cycleArtifacts struct {
	cycle    int
	services int // catalog size when rendered (for the cycles index)

	report     artifact // canonical JSON document (report.CycleJSON)
	reportText artifact // exact batch-mode stdout bytes (report.ReportText)
	heatmap    artifact // self-contained HTML page (report.HeatmapHTML)
	faults     artifact // the cycle's fault ledger as JSONL
}

// cycleCache is the read side's entire world: the latest cycle, the
// retained history ring (ascending by cycle), and the prebuilt index
// document. It is immutable after construction — the scheduler builds a
// fresh one per cycle and swaps it in with a single atomic pointer
// store, so readers never see a partially published cycle and never
// take a lock.
type cycleCache struct {
	latest *cycleArtifacts
	all    []*cycleArtifacts
	index  artifact

	// stale counts consecutive failed cycles since latest was
	// published. While stale > 0 the daemon serves the last good
	// artifacts in degraded mode, and every response carries the
	// precomputed staleness headers below (nil when healthy, so the
	// hot path pays one nil check and nothing else).
	stale    int
	warnHdr  []string // Warning: 110 prudentia "Response is Stale"
	staleHdr []string // X-Prudentia-Stale-Cycles: <stale>
}

// precomputeStaleHeaders materializes the degraded-mode header values
// once per cache build, keeping the request path allocation-free.
func (c *cycleCache) precomputeStaleHeaders() {
	if c.stale <= 0 {
		return
	}
	c.warnHdr = []string{`110 prudentia "Response is Stale"`}
	c.staleHdr = []string{strconv.Itoa(c.stale)}
}

// setStaleHeaders assigns the staleness headers when degraded (no-op
// while healthy). h is the request's header map.
func (c *cycleCache) setStaleHeaders(h map[string][]string) {
	if c.staleHdr == nil {
		return
	}
	h["Warning"] = c.warnHdr
	h["X-Prudentia-Stale-Cycles"] = c.staleHdr
}

// byCycle finds a retained cycle by number (nil if evicted or future).
func (c *cycleCache) byCycle(n int) *cycleArtifacts {
	for _, ca := range c.all {
		if ca.cycle == n {
			return ca
		}
	}
	return nil
}
