// The HTTP contract suite: full session lifecycle over httptest, the
// 4xx taxonomy (unknown ID, malformed body, wrong method), and the
// determinism-over-the-wire pin — report bytes fetched over HTTP are
// byte-identical to the offline Report.Export output for every
// exportable format.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// newTestServer builds a Server (on a private engine unless the config
// says otherwise) behind a real httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{})
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

// httpGet fetches a path and returns status plus body.
func httpGet(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// submitSession posts a submission body and expects 201.
func submitSession(t *testing.T, ts *httptest.Server, body string) SubmitResponse {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: status %d, body %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decoding submit response %s: %v", raw, err)
	}
	return sub
}

// waitDone polls a session's status until it leaves pending/running.
func waitDone(t *testing.T, ts *httptest.Server, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body := httpGet(t, ts, "/v1/sessions/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/sessions/%s: status %d, body %s", id, status, body)
		}
		var st StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding status %s: %v", body, err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still %s after 60s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// decodeError unmarshals a structured error body.
func decodeError(t *testing.T, body []byte) ErrorInfo {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q is not structured JSON: %v", body, err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("error body %q missing code or message", body)
	}
	return eb.Error
}

// fakeClock is a mutex-guarded manual clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sub := submitSession(t, ts, `{"runs":[
		{"workload":"simplemulticopy"},
		{"workload":"polybench/2mm","variant":"optimized","mode":"object"}]}`)
	if sub.ID != "s-1" || sub.Runs != 2 {
		t.Fatalf("submit response = %+v, want id s-1 with 2 runs", sub)
	}

	st := waitDone(t, ts, sub.ID)
	if st.State != "done" {
		t.Fatalf("session ended %s (error %q), want done", st.State, st.Error)
	}
	if len(st.Runs) != 2 || st.Runs[0].Workload != "simplemulticopy" || st.Runs[1].Variant != "optimized" {
		t.Fatalf("status runs = %+v", st.Runs)
	}
	if st.Finished == "" || st.Created == "" {
		t.Fatalf("status missing timestamps: %+v", st)
	}
	if st.Engine == nil {
		t.Fatal("finished status carries no engine batch stats")
	}
	if got := st.Engine.Hits + st.Engine.Dedups + st.Engine.Misses; got != st.Engine.Runs || st.Engine.Runs != 2 {
		t.Fatalf("batch stats %+v violate runs=hits+dedups+misses", st.Engine)
	}
	if st.Obs == nil {
		t.Fatal("finished status carries no per-session obs snapshot")
	}
	foundRuns := false
	for _, c := range st.Obs.Counters {
		if c.Name == "serve/runs" && c.Value == 2 {
			foundRuns = true
		}
	}
	if !foundRuns {
		t.Fatalf("per-session obs snapshot missing serve/runs=2: %+v", st.Obs.Counters)
	}

	// The report is fetchable and looks like a DrGPUM report; run
	// selection works per index.
	status, body := httpGet(t, ts, "/v1/sessions/"+sub.ID+"/report?format=text&run=1")
	if status != http.StatusOK || !bytes.Contains(body, []byte("DrGPUM report")) {
		t.Fatalf("report status %d, body %.200s", status, body)
	}

	// Healthz answers while sessions exist.
	if status, body := httpGet(t, ts, "/v1/healthz"); status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", status, body)
	}
}

// offlineReport produces the offline pipeline's report for one
// configuration: a fresh private engine (every offline CLI profiles
// through the engine), distinct from the server's engine so the
// comparison runs two real executions rather than aliasing one cached
// report. Call paths are cut at the workload's entry when captured, so
// the bytes match whichever goroutine ran the body.
func offlineReport(t *testing.T, w *workloads.Workload, v workloads.Variant, level gpu.PatchLevel, sampling int) *core.Report {
	t.Helper()
	res, err := engine.New(engine.Config{}).Run([]engine.RunSpec{{
		Mode:     engine.ModeProfile,
		Workload: w,
		Spec:     gpu.SpecRTX3090(),
		Variant:  v,
		Level:    level,
		Sampling: sampling,
	}})
	if err != nil {
		t.Fatalf("offline %s: %v", w.Name, err)
	}
	return res[0].Report
}

func TestReportBytesMatchOfflineExport(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sub := submitSession(t, ts, `{"runs":[{"workload":"rodinia/huffman"}]}`)
	if st := waitDone(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("session ended %s: %s", st.State, st.Error)
	}

	wl, ok := workloads.Lookup("rodinia/huffman")
	if !ok {
		t.Fatal("rodinia/huffman not registered")
	}
	rep := offlineReport(t, wl, workloads.VariantNaive, gpu.PatchFull, 1)

	formats := core.Formats()
	if len(formats) != 5 {
		t.Fatalf("expected all 5 formats registered (serve imports internal/gui), got %v", formats)
	}
	for _, f := range formats {
		var want bytes.Buffer
		if err := rep.Export(&want, f); err != nil {
			t.Fatalf("offline export %s: %v", f, err)
		}
		status, got := httpGet(t, ts, "/v1/sessions/"+sub.ID+"/report?format="+f.String())
		if status != http.StatusOK {
			t.Fatalf("report format=%s: status %d, body %.200s", f, status, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("format %s: HTTP bytes differ from offline Report.Export (%d vs %d bytes)", f, len(got), want.Len())
		}
	}
}

func TestUnknownAndMalformedSessionIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Never-issued number → 404.
	status, body := httpGet(t, ts, "/v1/sessions/s-999")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, body %s", status, body)
	}
	if e := decodeError(t, body); e.Code != "unknown_session" {
		t.Fatalf("unknown id: code %q", e.Code)
	}

	// Malformed spellings → 404 too (only the canonical form addresses).
	for _, id := range []string{"s-0", "s-01", "s-", "1", "x-1", "s-1x", "s-99999999999999999999999999"} {
		status, body := httpGet(t, ts, "/v1/sessions/"+id)
		if status != http.StatusNotFound {
			t.Errorf("id %q: status %d, body %s", id, status, body)
		}
	}

	// Unrouted tails → 404.
	status, body = httpGet(t, ts, "/v1/sessions/s-1/nonsense")
	if status != http.StatusNotFound {
		t.Fatalf("bad tail: status %d, body %s", status, body)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body, code string
	}{
		{"bad json", `{"runs":`, "bad_json"},
		{"unknown field", `{"runs":[{"workload":"simplemulticopy","bogus":1}]}`, "bad_json"},
		{"empty batch", `{"runs":[]}`, "bad_request"},
		{"unknown workload", `{"runs":[{"workload":"nope"}]}`, "bad_request"},
		{"unknown device", `{"runs":[{"workload":"simplemulticopy","device":"h100"}]}`, "bad_request"},
		{"unknown variant", `{"runs":[{"workload":"simplemulticopy","variant":"fast"}]}`, "bad_request"},
		{"unknown mode", `{"runs":[{"workload":"simplemulticopy","mode":"warp"}]}`, "bad_request"},
		{"negative sampling", `{"runs":[{"workload":"simplemulticopy","sampling":-1}]}`, "bad_request"},
		{"window without streaming", `{"runs":[{"workload":"simplemulticopy","window":4}]}`, "bad_request"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, resp.StatusCode, raw)
			continue
		}
		if e := decodeError(t, raw); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q (message %q)", tc.name, e.Code, tc.code, e.Message)
		}
	}
}

func TestMethodDiscipline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object"}]}`)

	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions"},
		{http.MethodPost, "/v1/healthz"},
		{http.MethodPost, "/v1/metrics"},
		{http.MethodDelete, "/v1/sessions/s-1"},
		{http.MethodPost, "/v1/sessions/s-1/report"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, body %s", tc.method, tc.path, resp.StatusCode, raw)
			continue
		}
		if e := decodeError(t, raw); e.Code != "method_not_allowed" {
			t.Errorf("%s %s: code %q", tc.method, tc.path, e.Code)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Errorf("%s %s: missing Allow header", tc.method, tc.path)
		}
	}
}

func TestReportParameterErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object"}]}`)
	if st := waitDone(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("session ended %s: %s", st.State, st.Error)
	}

	status, body := httpGet(t, ts, "/v1/sessions/"+sub.ID+"/report?format=yaml")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, body %s", status, body)
	}
	e := decodeError(t, body)
	if e.Code != "unknown_format" || !strings.Contains(e.Message, "text") {
		t.Fatalf("unknown format error = %+v (message should list known formats)", e)
	}

	for _, run := range []string{"1", "-1", "x"} {
		status, body := httpGet(t, ts, "/v1/sessions/"+sub.ID+"/report?run="+run)
		if status != http.StatusBadRequest {
			t.Errorf("run=%s: status %d, body %s", run, status, body)
			continue
		}
		if e := decodeError(t, body); e.Code != "bad_run_index" {
			t.Errorf("run=%s: code %q", run, e.Code)
		}
	}
}

// TestReportBeforeDone exercises the 409 paths deterministically by
// driving the handler with hand-built sessions (no timing games).
func TestReportBeforeDone(t *testing.T) {
	s := New(Config{Engine: engine.New(engine.Config{})})
	for _, tc := range []struct {
		state State
		code  string
	}{
		{StatePending, "session_not_done"},
		{StateRunning, "session_not_done"},
		{StateFailed, "session_failed"},
	} {
		sess := &Session{ID: "s-1", state: tc.state}
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/sessions/s-1/report", nil)
		s.handleReport(rr, req, sess)
		if rr.Code != http.StatusConflict {
			t.Errorf("state %s: status %d, body %s", tc.state, rr.Code, rr.Body)
			continue
		}
		if e := decodeError(t, rr.Body.Bytes()); e.Code != tc.code {
			t.Errorf("state %s: code %q, want %q", tc.state, e.Code, tc.code)
		}
	}
}

// TestDefaultEngineIsSharedAcrossServers pins the cross-tenant cache
// property at its root: two servers built without an explicit engine
// share engine.Default(), so the second tenant's identical batch is
// served entirely from the first tenant's profile run.
func TestDefaultEngineIsSharedAcrossServers(t *testing.T) {
	a := New(Config{})
	b := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	t.Cleanup(a.Drain)
	t.Cleanup(b.Drain)

	// A sampling period no other test uses keeps the cache key private
	// to this test within the process.
	const body = `{"runs":[{"workload":"polybench/bicg","mode":"object","sampling":37}]}`

	subA := submitSession(t, tsA, body)
	stA := waitDone(t, tsA, subA.ID)
	if stA.State != "done" || stA.Engine.Misses != 1 {
		t.Fatalf("tenant A batch stats %+v, want 1 miss", stA.Engine)
	}

	subB := submitSession(t, tsB, body)
	stB := waitDone(t, tsB, subB.ID)
	if stB.State != "done" {
		t.Fatalf("tenant B ended %s: %s", stB.State, stB.Error)
	}
	if stB.Engine.Misses != 0 || stB.Engine.Hits+stB.Engine.Dedups != 1 {
		t.Fatalf("tenant B batch stats %+v, want the run served from tenant A's profile", stB.Engine)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object"}]}`)
	if st := waitDone(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("session ended %s: %s", st.State, st.Error)
	}
	// Fetch one report so the export counter moves.
	if status, _ := httpGet(t, ts, "/v1/sessions/"+sub.ID+"/report"); status != http.StatusOK {
		t.Fatalf("report status %d", status)
	}

	status, body := httpGet(t, ts, "/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# drgpum-serve metrics",
		"sessions issued 1",
		"sessions resident 1",
		"sessions done 1",
		"engine runs 1",
		"engine misses 1",
		"serve/sessions",
		"serve/runs",
		"serve/report-exports",
		"serve/http-requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestStatusTouchKeepsSessionWarm pins that reading a session's status
// counts as a touch for both LRU order and the TTL clock.
func TestStatusTouchKeepsSessionWarm(t *testing.T) {
	clk := newFakeClock()
	s, ts := newTestServer(t, Config{Capacity: 2, TTL: time.Minute, Now: clk.Now})

	subA := submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object"}]}`)
	subB := submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object","sampling":2}]}`)
	waitDone(t, ts, subA.ID)
	waitDone(t, ts, subB.ID)

	// Touch A, then overflow the store: B is now the LRU victim.
	httpGet(t, ts, "/v1/sessions/"+subA.ID)
	subC := submitSession(t, ts, `{"runs":[{"workload":"simplemulticopy","mode":"object","sampling":3}]}`)
	waitDone(t, ts, subC.ID)

	if status, _ := httpGet(t, ts, "/v1/sessions/"+subA.ID); status != http.StatusOK {
		t.Fatalf("touched session A evicted (status %d), LRU order ignored the touch", status)
	}
	if status, _ := httpGet(t, ts, "/v1/sessions/"+subB.ID); status != http.StatusGone {
		t.Fatalf("session B: status %d, want 410", status)
	}

	// Keep C warm across the TTL horizon; A (last touched before the
	// jump) expires.
	clk.Advance(45 * time.Second)
	httpGet(t, ts, "/v1/sessions/"+subC.ID)
	clk.Advance(45 * time.Second)
	if n := s.SweepExpired(); n != 1 {
		t.Fatalf("sweep retired %d sessions, want 1 (only the untouched one)", n)
	}
	if status, _ := httpGet(t, ts, "/v1/sessions/"+subC.ID); status != http.StatusOK {
		t.Fatalf("recently touched session C swept (status %d)", status)
	}
}
