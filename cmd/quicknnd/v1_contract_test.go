package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"context"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/serve"
)

// TestV1ErrorTaxonomyContract enumerates the wire contract exhaustively:
// every typed error in the serving taxonomy maps to exactly one
// (HTTP status, code) pair, wrapped forms map identically, and no two
// sentinels share a code (a client branching on `code` can distinguish
// every failure).
func TestV1ErrorTaxonomyContract(t *testing.T) {
	table := []struct {
		err    error
		status int
		code   string
	}{
		{serve.ErrShed, http.StatusServiceUnavailable, "shed"},
		{serve.ErrDegraded, http.StatusServiceUnavailable, "degraded"},
		{serve.ErrOverloaded, http.StatusServiceUnavailable, "overloaded"},
		{serve.ErrClosed, http.StatusServiceUnavailable, "draining"},
		{serve.ErrNoIndex, http.StatusServiceUnavailable, "no_index"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{context.Canceled, 499, "canceled"},
		{quicknn.ErrEmptyInput, http.StatusBadRequest, "empty_input"},
		{quicknn.ErrInvalidOptions, http.StatusBadRequest, "bad_request"},
		{quicknn.ErrCorruptIndex, http.StatusInternalServerError, "corrupt_index"},
	}
	seen := map[string]error{}
	for _, tc := range table {
		status, code := codeFor(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("codeFor(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
		}
		// Wrapping anywhere in the chain must not change the verdict:
		// handlers annotate errors with context before they reach codeFor.
		wrapped := fmt.Errorf("handler context: %w", fmt.Errorf("inner: %w", tc.err))
		if ws, wc := codeFor(wrapped); ws != tc.status || wc != tc.code {
			t.Errorf("codeFor(wrapped %v) = (%d, %q), want (%d, %q)", tc.err, ws, wc, tc.status, tc.code)
		}
		if prev, dup := seen[tc.code]; dup {
			t.Errorf("code %q claimed by both %v and %v", tc.code, prev, tc.err)
		}
		seen[tc.code] = tc.err
		if got := statusFor(tc.err); got != tc.status {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.status)
		}
	}
	// A non-finite point is a malformed request, like a bad option.
	if status, code := codeFor(fmt.Errorf("advance: %w", quicknn.ErrInvalidPoint)); status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf(`codeFor(ErrInvalidPoint) = (%d, %q), want (400, "bad_request")`, status, code)
	}
	// Anything outside the taxonomy is an opaque 500.
	if status, code := codeFor(fmt.Errorf("novel failure")); status != http.StatusInternalServerError || code != "internal" {
		t.Errorf(`codeFor(unknown) = (%d, %q), want (500, "internal")`, status, code)
	}
}

// TestEnvelopeEncodingGolden pins the envelope's exact wire bytes: field
// order, names, and which fields disappear when unset. A change here is
// a breaking change for /v1 clients.
func TestEnvelopeEncodingGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   errorResponse
		want string
	}{
		{
			"full",
			errorResponse{Error: "serve: shed", Code: "shed", RetryAfterMS: 250, Epoch: 7},
			`{"error":"serve: shed","code":"shed","retry_after_ms":250,"epoch":7}`,
		},
		{
			"no retry hint outside 503",
			errorResponse{Error: "bad mode", Code: "bad_request", Epoch: 3},
			`{"error":"bad mode","code":"bad_request","epoch":3}`,
		},
		{
			"pre-first-frame",
			errorResponse{Error: "no index", Code: "no_index", RetryAfterMS: 100},
			`{"error":"no index","code":"no_index","retry_after_ms":100}`,
		},
		{
			"legacy minimum",
			errorResponse{Error: "oops"},
			`{"error":"oops"}`,
		},
	} {
		got, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: envelope bytes\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestV1EnvelopeOnTheWire checks the live envelope contract end to end:
// a 503 carries code, a positive retry_after_ms, and a Retry-After
// header that is exactly the hint rounded up to whole seconds.
func TestV1EnvelopeOnTheWire(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/search", searchRequest{Queries: [][3]float32{{1, 1, 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/search before frame = %d (%s), want 503", resp.StatusCode, body)
	}
	var env errorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("503 body %s: %v", body, err)
	}
	if env.Code != "no_index" || env.Error == "" {
		t.Errorf("503 envelope = %+v, want code no_index with message", env)
	}
	if env.RetryAfterMS <= 0 {
		t.Errorf("503 envelope retry_after_ms = %d, want > 0", env.RetryAfterMS)
	}
	header := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(header)
	if err != nil {
		t.Fatalf("Retry-After header %q not an integer", header)
	}
	if wantCeil := (env.RetryAfterMS + 999) / 1000; int64(secs) != wantCeil {
		t.Errorf("Retry-After = %ds, want ceil(%dms) = %ds", secs, env.RetryAfterMS, wantCeil)
	}

	// Non-503 envelopes carry no retry hint, on the wire too.
	resp, body = postJSON(t, ts.URL+"/v1/search", searchRequest{Queries: [][3]float32{{1, 1, 1}}, Mode: "psychic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode = %d, want 400", resp.StatusCode)
	}
	if bytes.Contains(body, []byte("retry_after_ms")) {
		t.Errorf("400 envelope carries retry_after_ms: %s", body)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("400 reply carries a Retry-After header")
	}
}

// TestHealthSplit pins the liveness/readiness split: /v1/healthz is 200
// from process start, /v1/readyz refuses with a branchable reason until
// the first frame.
func TestHealthSplit(t *testing.T) {
	_, ts := newTestServer(t)

	if resp := mustGet(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/healthz before frame = %d, want 200 (liveness is index-independent)", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatalf("GET /v1/readyz: %v", err)
	}
	var env errorResponse
	if jsonErr := json.NewDecoder(resp.Body).Decode(&env); jsonErr != nil {
		t.Fatalf("readyz body: %v", jsonErr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Code != "no_index" {
		t.Fatalf("/v1/readyz before frame = (%d, %q), want (503, no_index)", resp.StatusCode, env.Code)
	}
	if env.RetryAfterMS <= 0 {
		t.Error("readyz 503 missing retry_after_ms")
	}

	ingestFrame(t, ts, 300, 1)

	resp, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatalf("GET /v1/readyz: %v", err)
	}
	var rz readyzResponse
	if jsonErr := json.NewDecoder(resp.Body).Decode(&rz); jsonErr != nil {
		t.Fatalf("readyz body: %v", jsonErr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/readyz after frame = %d, want 200", resp.StatusCode)
	}
	if rz.Status != "ok" || rz.Epoch != 1 || rz.DegradeLevel != 0 || rz.Degrade != "none" || rz.QueueCapacity == 0 {
		t.Errorf("readyz body = %+v, want ok/epoch 1/level 0 with a queue bound", rz)
	}
}

// mustGet GETs a URL, closes the body, and returns the response.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// TestOnlyV1Routes pins the wire surface to /v1: the unversioned paths
// the daemon once served as aliases are not found.
func TestOnlyV1Routes(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 300, 1)
	for _, path := range []string{"/frame", "/search", "/metrics", "/healthz",
		"/debug/quicknn/flightrecorder", "/debug/quicknn/slowlog"} {
		if resp := mustGet(t, ts.URL+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFrameRejectsFloat32Overflow pins that a coordinate beyond float32
// range is refused with the bad_request envelope, never ingested as an
// infinity.
func TestFrameRejectsFloat32Overflow(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/frame", "application/json",
		bytes.NewReader([]byte(`{"points":[[1,2,3],[1e39,0,0]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" {
		t.Fatalf("/v1/frame with 1e39 = (%d, %q), want (400, bad_request)", resp.StatusCode, env.Code)
	}
}
