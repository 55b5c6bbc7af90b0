package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

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

	body := func(tenant, url string) string {
		return `{"url":"` + url + `","access_code":"c","tenant":"` + tenant + `"}`
	}
	for i := 0; i < 2; i++ {
		if rec := postSubmission(t, s, body("t1", "https://a.example/1")); rec.Code != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", i, rec.Code)
		}
	}
	rec := postSubmission(t, s, body("t1", "https://a.example/3"))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("over-budget = %d (Retry-After %q), want 429", rec.Code, rec.Header().Get("Retry-After"))
	}
	// Another tenant still has budget.
	if rec := postSubmission(t, s, body("t2", "https://b.example/1")); rec.Code != http.StatusAccepted {
		t.Fatalf("t2 = %d, want 202", rec.Code)
	}

	// Cycle boundary refills the bucket.
	s.tenants.cycleEnd(1)
	if rec := postSubmission(t, s, body("t1", "https://a.example/4")); rec.Code != http.StatusAccepted {
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
		if rec := postSubmission(t, s, `{"url":"https://x.example","access_code":"c","tenant":"t"}`); rec.Code != http.StatusAccepted {
			t.Fatal(rec.Code)
		}
	}
	rec := postSubmission(t, s, `{"url":"https://x.example","access_code":"c","tenant":"t"}`)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "queue_full") {
		t.Fatalf("full queue = %d %q", rec.Code, rec.Body.String())
	}
}

// TestSubmissionValidation rejects malformed bodies up front.
func TestSubmissionValidation(t *testing.T) {
	s := newFakeServer(t, &fakeSource{}, nil)
	if rec := postSubmission(t, s, `{not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed = %d", rec.Code)
	}
	if rec := postSubmission(t, s, `{"access_code":"c"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("missing url = %d", rec.Code)
	}
}

// TestTenantBreaker trips a tenant whose submissions keep failing
// (invalid access codes), suspends further submissions with 503, then
// re-admits one probe at the next cycle boundary — the canary protocol.
func TestTenantBreaker(t *testing.T) {
	src := &fakeSource{submitErr: errors.New("core: invalid access code")}
	s := newFakeServer(t, src, func(c *Config) { c.TenantBurst = 10; c.MaxCycles = 1 })

	bad := `{"url":"https://evil.example","access_code":"wrong","tenant":"mallory"}`
	// Three failed applications at +2 each cross the default threshold
	// of 5. Submissions are settled when the scheduler applies them.
	for i := 0; i < 3; i++ {
		if rec := postSubmission(t, s, bad); rec.Code != http.StatusAccepted {
			t.Fatalf("queueing submission %d = %d", i, rec.Code)
		}
	}
	s.applySubmissions(1)
	if !s.tenants.suspended("mallory") {
		t.Fatal("tenant breaker did not trip after three failed submissions")
	}
	rec := postSubmission(t, s, bad)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "suspended") {
		t.Fatalf("suspended tenant = %d %q, want 503", rec.Code, rec.Body.String())
	}

	// Cycle boundary: breaker goes half-open, one probe is admitted.
	s.tenants.cycleEnd(1)
	if rec := postSubmission(t, s, bad); rec.Code != http.StatusAccepted {
		t.Fatalf("probe submission = %d, want 202", rec.Code)
	}
	// The probe fails too → breaker re-opens.
	s.applySubmissions(1)
	if !s.tenants.suspended("mallory") {
		t.Fatal("failed probe did not re-open the breaker")
	}

	// A successful probe closes it for good.
	s.tenants.cycleEnd(1)
	src.submitErr = nil
	if rec := postSubmission(t, s, bad); rec.Code != http.StatusAccepted {
		t.Fatalf("second probe = %d", rec.Code)
	}
	s.applySubmissions(1)
	if s.tenants.suspended("mallory") {
		t.Fatal("successful probe did not close the breaker")
	}
	if rec := postSubmission(t, s, bad); rec.Code != http.StatusAccepted {
		t.Fatalf("post-recovery submission = %d, want 202", rec.Code)
	}
}

// TestSubmissionsFlowIntoCycles is the full write-side path: queued
// submissions are applied at the next cycle boundary, in arrival order.
func TestSubmissionsFlowIntoCycles(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) { c.MaxCycles = 2 })
	postSubmission(t, s, `{"url":"https://one.example","access_code":"c","tenant":"t"}`)
	postSubmission(t, s, `{"url":"https://two.example","access_code":"c","tenant":"t"}`)
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(src.submitted) != 2 || src.submitted[0] != "https://one.example" || src.submitted[1] != "https://two.example" {
		t.Fatalf("applied submissions = %v", src.submitted)
	}
}

// FuzzSubmissionBody: arbitrary bytes POSTed to the submissions route
// never panic the handler, are answered only with 202, 400, 429 or 503,
// are each counted exactly once as accepted or denied, and are refused
// whole when they exceed the 4096-byte body limit. Every body is sent
// three times to a tenant burst of two, so a well-formed one walks
// 202, 202, 429 and a malformed one is a 400 each time.
func FuzzSubmissionBody(f *testing.F) {
	f.Add([]byte(`{"url":"https://example.com/p","access_code":"c","tenant":"t"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"url":"https://example.com/p","acc`))
	f.Add([]byte(`{"url":"https://example.com/` + strings.Repeat("a", 5000) + `","tenant":"t"}`))
	f.Add([]byte(`{"url":"https://example.com/p"}` + strings.Repeat(" ", 5000)))
	f.Add([]byte(`{"url":{"nested":[1,{"deep":null}]},"tenant":["t"]}`))
	f.Add([]byte("{\"url\":\"https://example.com/\xff\xfe\",\"tenant\":\"\xc3\x28\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newFakeServer(t, &fakeSource{}, func(c *Config) { c.TenantBurst = 2 })
		const sends = 3
		var first int
		for i := 0; i < sends; i++ {
			code := postSubmission(t, s, string(body)).Code
			switch code {
			case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("send %d answered %d", i, code)
			}
			if i == 0 {
				first = code
			}
			if (code == http.StatusBadRequest) != (first == http.StatusBadRequest) {
				t.Fatalf("send %d answered %d after a first answer of %d", i, code, first)
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
