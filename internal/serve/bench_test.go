package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServer builds one published server per benchmark binary run,
// shared across sub-benchmarks (the cache is immutable, so sharing is
// safe and keeps setup off the measured path).
var benchSrv *Server

func benchServer(b *testing.B) *Server {
	b.Helper()
	if benchSrv != nil {
		return benchSrv
	}
	t := &testing.T{}
	s, _ := newPublishedServer(t, 42)
	if t.Failed() || s.Latest() != 1 {
		b.Fatal("bench server failed to publish a cycle")
	}
	benchSrv = s
	return s
}

// benchRoute measures one route's cached hot path: handler resolved
// once, request and ResponseWriter reused, so the numbers isolate the
// handler itself. TestZeroAllocHotPath requires 0 allocs/op of the same
// handlers.
func benchRoute(b *testing.B, path, inm string) {
	s := benchServer(b)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		etag := s.cache.Load().latest.report.etag
		req.Header.Set("If-None-Match", etag)
	}
	h, pattern := s.mux.Handler(req)
	if pattern == "" {
		b.Fatal("no handler for " + path)
	}
	w := newNullResponseWriter()
	h.ServeHTTP(w, req) // warm-up: first call sizes the header map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.status != 200 && w.status != 304 {
		b.Fatalf("status = %d", w.status)
	}
}

func BenchmarkCachedReportHit(b *testing.B)     { benchRoute(b, "/api/v1/report", "") }
func BenchmarkCachedHeatmapHit(b *testing.B)    { benchRoute(b, "/api/v1/heatmap", "") }
func BenchmarkCachedReportTextHit(b *testing.B) { benchRoute(b, "/api/v1/report.txt", "") }
func BenchmarkReportNotModified(b *testing.B)   { benchRoute(b, "/api/v1/report", "etag") }
func BenchmarkMetricsScrape(b *testing.B)       { benchRoute(b, "/metrics", "") }
