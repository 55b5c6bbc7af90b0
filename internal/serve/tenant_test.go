package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prudentia/internal/journal"
)

// validCode is the first access code the paper's Appendix A publishes.
const validCode = "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ"

// submission renders a POST /api/v1/submissions body.
func submission(url, code, tenant string) string {
	return `{"url":"` + url + `","access_code":"` + code + `","tenant":"` + tenant + `"}`
}

func postSubmission(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/submissions", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestSubmissionBudgets covers the token bucket: a tenant gets
// TenantBurst submissions per cycle, then 429 until the next cycle
// boundary refills; other tenants are unaffected.
func TestSubmissionBudgets(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) { c.TenantBurst = 2 })

	for i := 0; i < 2; i++ {
		if rec := postSubmission(t, s, submission("https://a.example/1", validCode, "t1")); rec.Code != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", i, rec.Code)
		}
	}
	rec := postSubmission(t, s, submission("https://a.example/3", validCode, "t1"))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("over-budget = %d (Retry-After %q), want 429", rec.Code, rec.Header().Get("Retry-After"))
	}
	// Another tenant still has budget.
	if rec := postSubmission(t, s, submission("https://b.example/1", validCode, "t2")); rec.Code != http.StatusAccepted {
		t.Fatalf("t2 = %d, want 202", rec.Code)
	}

	// Cycle boundary refills the bucket.
	s.tenants.cycleEnd(1)
	if rec := postSubmission(t, s, submission("https://a.example/4", validCode, "t1")); rec.Code != http.StatusAccepted {
		t.Fatalf("post-refill = %d, want 202", rec.Code)
	}
}

// TestSubmissionQueueCap bounds total pending submissions across all
// tenants.
func TestSubmissionQueueCap(t *testing.T) {
	s := newFakeServer(t, &fakeSource{}, func(c *Config) {
		c.SubmissionsMax = 2
		c.TenantBurst = 10
	})
	for i := 0; i < 2; i++ {
		if rec := postSubmission(t, s, submission("https://x.example", validCode, "t")); rec.Code != http.StatusAccepted {
			t.Fatal(rec.Code)
		}
	}
	rec := postSubmission(t, s, submission("https://x.example", validCode, "t"))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "queue_full") {
		t.Fatalf("full queue = %d %q", rec.Code, rec.Body.String())
	}
}

// TestSubmissionValidation rejects malformed bodies and wrong access
// codes up front. A wrong code is refused at the door with 403: one
// denial, no token spent, no WAL record, and the engine never sees it.
func TestSubmissionValidation(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) { c.TenantBurst = 2; c.StateDir = dir })
	t.Cleanup(func() { s.wal.close() })
	if rec := postSubmission(t, s, `{not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed = %d", rec.Code)
	}
	if rec := postSubmission(t, s, `{"access_code":"`+validCode+`"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("missing url = %d", rec.Code)
	}

	denied := s.subsDenied.Value()
	if rec := postSubmission(t, s, submission("https://evil.example", "wrong", "mallory")); rec.Code != http.StatusForbidden {
		t.Fatalf("wrong code = %d %q, want 403", rec.Code, rec.Body.String())
	}
	if d := s.subsDenied.Value() - denied; d != 1 {
		t.Errorf("wrong code counted %d denials, want 1", d)
	}
	// The 403 spent no token: the tenant's full burst still gets 202s.
	for i := 0; i < 2; i++ {
		if rec := postSubmission(t, s, submission("https://ok.example", validCode, "mallory")); rec.Code != http.StatusAccepted {
			t.Fatalf("valid submission %d after the 403 = %d, want 202", i, rec.Code)
		}
	}
	if rec := postSubmission(t, s, submission("https://ok.example", validCode, "mallory")); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submission past the burst = %d, want 429", rec.Code)
	}

	data, err := os.ReadFile(filepath.Join(dir, "subs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := journal.ScanFrames(data)
	// header + the two accepts; nothing of the 403.
	if len(payloads) != 3 {
		t.Fatalf("WAL holds %d frames, want 3 (header + two accepts)", len(payloads))
	}
	for _, p := range payloads {
		if strings.Contains(string(p), "evil.example") {
			t.Fatalf("WAL holds a record of the refused submission: %s", p)
		}
	}
	s.applySubmissions(1)
	if len(src.submitted) != 2 || src.submitted[0] != "https://ok.example" {
		t.Fatalf("engine saw %v, want only the two accepted submissions", src.submitted)
	}
}

// TestSubmissionsFlowIntoCycles is the full write-side path: queued
// submissions are applied at the next cycle boundary, in arrival order.
func TestSubmissionsFlowIntoCycles(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) { c.MaxCycles = 2 })
	postSubmission(t, s, submission("https://one.example", validCode, "t"))
	postSubmission(t, s, submission("https://two.example", validCode, "t"))
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(src.submitted) != 2 || src.submitted[0] != "https://one.example" || src.submitted[1] != "https://two.example" {
		t.Fatalf("applied submissions = %v", src.submitted)
	}
}

// FuzzSubmissionBody: arbitrary bytes POSTed to the submissions route
// never panic the handler, are answered only with 202, 400, 403, 429 or
// 503, are each counted exactly once as accepted or denied, and are
// refused whole when they exceed the 4096-byte body limit. Every body
// is sent three times to a tenant burst of two, so a well-formed one
// walks 202, 202, 429, a malformed one is a 400 each time and one with
// a wrong access code is a 403 each time.
func FuzzSubmissionBody(f *testing.F) {
	f.Add([]byte(submission("https://example.com/p", validCode, "t")))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"url":"https://example.com/p","acc`))
	f.Add([]byte(`{"url":"https://example.com/` + strings.Repeat("a", 5000) + `","tenant":"t"}`))
	f.Add([]byte(`{"url":"https://example.com/p"}` + strings.Repeat(" ", 5000)))
	f.Add([]byte(`{"url":{"nested":[1,{"deep":null}]},"tenant":["t"]}`))
	f.Add([]byte("{\"url\":\"https://example.com/\xff\xfe\",\"tenant\":\"\xc3\x28\"}"))
	f.Add([]byte(submission("https://example.com/p", "wrong", "t")))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newFakeServer(t, &fakeSource{}, func(c *Config) { c.TenantBurst = 2 })
		const sends = 3
		var first int
		for i := 0; i < sends; i++ {
			code := postSubmission(t, s, string(body)).Code
			switch code {
			case http.StatusAccepted, http.StatusBadRequest, http.StatusForbidden, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("send %d answered %d", i, code)
			}
			if i == 0 {
				first = code
			}
			for _, refused := range []int{http.StatusBadRequest, http.StatusForbidden} {
				if (code == refused) != (first == refused) {
					t.Fatalf("send %d answered %d after a first answer of %d", i, code, first)
				}
			}
			if len(body) > 4096 && code != http.StatusBadRequest {
				t.Fatalf("%d-byte body answered %d, want 400", len(body), code)
			}
		}
		if a, d := s.subsAccepted.Value(), s.subsDenied.Value(); a+d != sends {
			t.Fatalf("accepted %d + denied %d != %d requests sent", a, d, sends)
		}
	})
}
