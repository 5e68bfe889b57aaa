// Fuzz coverage for the three parsing surfaces an untrusted client can
// reach: the session-ID grammar, the /v1/sessions/... router and the
// submit body. All run in `go test` as regression tests over their seed
// corpora; `go test -fuzz` explores further.
package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// FuzzSessionID pins the parser's round-trip property: every accepted
// ID re-formats to exactly the input (the store relies on this — a
// second spelling of the same number would dodge the 410-vs-404
// distinction), and no input panics.
func FuzzSessionID(f *testing.F) {
	for _, seed := range []string{
		"s-1", "s-42", "s-18446744073709551615", "s-18446744073709551616",
		"", "s", "s-", "s-0", "s-01", "1", "x-1", "s-1x", "s--1", "s-+1",
		"S-1", "s-\x00", "s-٣", "s-1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		n, ok := parseSessionID(id)
		if !ok {
			return
		}
		if n == 0 {
			t.Fatalf("parseSessionID(%q) accepted the reserved number 0", id)
		}
		if got := formatSessionID(n); got != id {
			t.Fatalf("round trip broken: parseSessionID(%q) = %d, formatSessionID = %q", id, n, got)
		}
	})
}

// FuzzSessionRoute throws arbitrary path suffixes at a live handler and
// checks the contract every response must honor: a status from the
// documented set, and a structured JSON error body on every non-2xx.
func FuzzSessionRoute(f *testing.F) {
	eng := engine.New(engine.Config{})
	s := New(Config{Engine: eng, Capacity: 4, TTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)
	f.Cleanup(s.Drain)

	// One real session so live, gone-adjacent, and unknown numbers all
	// exist in the store's address space.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"runs":[{"workload":"simplemulticopy","mode":"object"}]}`))
	if err != nil {
		f.Fatalf("seed session: %v", err)
	}
	var sub SubmitResponse
	if err := decodeInto(resp, http.StatusCreated, &sub); err != nil {
		f.Fatalf("seed session: %v", err)
	}
	if st := pollDone(ts, sub.ID, 60*time.Second); st == nil || st.State != "done" {
		f.Fatalf("seed session did not complete")
	}

	for _, seed := range []string{
		"s-1", "s-1/report", "s-1/report?format=profile", "s-2", "s-0",
		"s-1/", "s-1/bogus", "s-1/report/extra", "..", "../metrics",
		"s-1/report?format=%00", "s-1/report?run=9", "%2e%2e", "s-1%2freport",
	} {
		f.Add(seed)
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusNotFound: true, http.StatusGone: true,
		http.StatusBadRequest: true, http.StatusConflict: true,
		http.StatusMethodNotAllowed: true,
	}
	f.Fuzz(func(t *testing.T, suffix string) {
		req := httptest.NewRequest(http.MethodGet, "http://fuzz/v1/sessions/x", nil)
		// Bypass URL parsing so raw bytes reach the router, as a
		// hand-crafted request line would.
		req.URL.Path = "/v1/sessions/" + suffix
		req.URL.RawQuery = ""
		if i := strings.IndexByte(suffix, '?'); i >= 0 {
			req.URL.Path = "/v1/sessions/" + suffix[:i]
			req.URL.RawQuery = suffix[i+1:]
		}
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if !allowed[rr.Code] {
			t.Fatalf("path %q: unexpected status %d: %s", suffix, rr.Code, rr.Body.String())
		}
		if rr.Code >= 400 {
			e := decodeError(t, rr.Body.Bytes())
			if e.Code == "" {
				t.Fatalf("path %q: %d without an error code", suffix, rr.Code)
			}
		}
	})
}

// FuzzSubmitBody decodes arbitrary submit bodies the way the handler
// does and maps every run through engine.Request.Spec, the parser the
// drgpum CLI shares. It submits and executes nothing. Nothing may panic,
// and every accepted run must be a well-formed profiling run: a
// registered workload at object or intra-object level, a sampling period
// of at least 1, and a window only when streaming.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"runs":[]}`,
		`{"runs":[{"workload":"simplemulticopy","bogus":1}]}`,
		`{"runs":[{"workload":"nonesuch"}]}`,
		`{"runs":[{"workload":"simplemulticopy","device":"h100"}]}`,
		`{"runs":[{"workload":"simplemulticopy","variant":"fast"}]}`,
		`{"runs":[{"workload":"simplemulticopy","mode":"warp"}]}`,
		`{"runs":[{"workload":"simplemulticopy","sampling":-3}]}`,
		`{"runs":[{"workload":"simplemulticopy","streaming":true,"window":-1}]}`,
		`{"runs":[{"workload":"simplemulticopy","window":4}]}`,
		`{"runs":[{"workload":"simplemulticopy","device":"A100","variant":"Optimized","mode":"OBJECT"}]}`,
		`{"runs":[{"workload":"rodinia/huffman"},{"workload":"polybench/bicg","mode":"object","sampling":100},` +
			`{"workload":"simplemulticopy","streaming":true,"window":8,"memcheck":true}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		for i, rr := range req.Runs {
			s, err := rr.Spec()
			if err != nil {
				continue
			}
			if w, ok := workloads.Lookup(rr.Workload); !ok || s.Workload != w {
				t.Fatalf("runs[%d] %+v: accepted workload %q is not the registered one", i, rr, rr.Workload)
			}
			if s.Mode != engine.ModeProfile {
				t.Fatalf("runs[%d] %+v: mode %s, want profile", i, rr, s.Mode)
			}
			if s.Level != gpu.PatchAPI && s.Level != gpu.PatchFull {
				t.Fatalf("runs[%d] %+v: level %s", i, rr, s.Level)
			}
			if s.Sampling < 1 || s.Window < 0 || (s.Window > 0 && !s.Streaming) {
				t.Fatalf("runs[%d] %+v: sampling %d, window %d, streaming %v", i, rr, s.Sampling, s.Window, s.Streaming)
			}
		}
	})
}
