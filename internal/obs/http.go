package obs

// This file holds the per-route instrument handles of the serving
// daemon, following the package's resolve-once convention so the request
// hot path touches no maps and allocates nothing. The /metrics route
// itself is internal/serve's: it appends Registry.AppendPrometheus to a
// pooled buffer and replies through the artifacts' write path.

// RouteInstruments are one route's resolved handles: requests served,
// cache activity, and wall latency. All fields are nil-safe, so a route
// constructed without a registry records nothing at zero branching cost.
type RouteInstruments struct {
	// Requests counts every request that reached the route handler.
	Requests *Counter
	// CacheHits counts responses served from the precomputed per-cycle
	// artifact cache (200 with cached bytes).
	CacheHits *Counter
	// NotModified counts conditional requests answered 304 via ETag
	// revalidation (the cheapest possible hit).
	NotModified *Counter
	// Misses counts requests the cache could not answer (no completed
	// cycle yet, or an evicted historical cycle).
	Misses *Counter
	// WallLatency observes per-request handler wall time in seconds. The
	// name carries "wall" per the package convention: scrape bytes are
	// deterministic only after Snapshot.StripWallClock.
	WallLatency *Histogram
}

// HTTPRequestWallBuckets is the fixed layout for request-latency
// histograms: cached-artifact hits are microseconds, a cold heatmap
// render tops out well under a second.
func HTTPRequestWallBuckets() []float64 { return ExpBuckets(0.0001, 4, 8) } // 100 µs .. ~1.6 s

// HTTPRoute resolves the instrument handles for one named route. Metric
// names follow prudentia_http_* with a literal {route="..."} label
// suffix, which the exposition carries verbatim under a single TYPE
// header per family. Resolve once at mux construction; never per
// request.
func HTTPRoute(reg *Registry, route string) RouteInstruments {
	if reg == nil {
		return RouteInstruments{}
	}
	label := `{route="` + route + `"}`
	return RouteInstruments{
		Requests:    reg.Counter("prudentia_http_requests_total" + label),
		CacheHits:   reg.Counter("prudentia_http_cache_hits_total" + label),
		NotModified: reg.Counter("prudentia_http_not_modified_total" + label),
		Misses:      reg.Counter("prudentia_http_cache_misses_total" + label),
		WallLatency: reg.Histogram("prudentia_http_request_wall_seconds"+label, HTTPRequestWallBuckets()),
	}
}
