package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
)

// The HTTP/JSON API, on net/http only:
//
//	POST /v1/sessions                   submit a RunSpec batch → 201 + ID
//	GET  /v1/sessions/{id}              status, engine batch stats, obs snapshot
//	GET  /v1/sessions/{id}/report       ?format=<name>&run=<i> → report bytes
//	GET  /v1/metrics                    server + engine + obs summary (text)
//	GET  /v1/healthz                    liveness
//
// Errors are structured JSON: {"error":{"code":..., "message":...}}.

// SubmitRequest is the POST /v1/sessions body. Each run is in the drgpum
// CLI's vocabulary, and engine.Request.Spec parses it as it parses the
// CLI's flags.
type SubmitRequest struct {
	Runs []engine.Request `json:"runs"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Runs  int    `json:"runs"`
}

// EngineStats is engine.Stats with JSON tags: the per-batch delta the
// status endpoint reports for a finished session.
type EngineStats struct {
	Runs   int `json:"runs"`
	Hits   int `json:"hits"`
	Dedups int `json:"dedups"`
	Misses int `json:"misses"`
}

// RunStatus is one run's slot in a status response.
type RunStatus struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Mode     string `json:"mode"`
	Sampling int    `json:"sampling"`
	Error    string `json:"error,omitempty"`
}

// StatusResponse is the GET /v1/sessions/{id} body.
type StatusResponse struct {
	ID       string       `json:"id"`
	State    string       `json:"state"`
	Created  string       `json:"created"`
	Finished string       `json:"finished,omitempty"`
	Runs     []RunStatus  `json:"runs"`
	Error    string       `json:"error,omitempty"`
	Engine   *EngineStats `json:"engine,omitempty"`
	// Obs is the per-session observability snapshot (wall zeroed, so the
	// field is deterministic for a deterministic batch).
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// ErrorInfo is the payload of every non-2xx response.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps ErrorInfo as the response document.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// maxSubmitBytes bounds a submission body; a million-user service does
// not read unbounded request bodies.
const maxSubmitBytes = 1 << 20

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s.rec.AddNamed(obs.NamedServeHTTP, 1)
	switch r.URL.Path {
	case "/v1/healthz":
		if !s.allow(w, r, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	case "/v1/metrics":
		if !s.allow(w, r, http.MethodGet) {
			return
		}
		s.handleMetrics(w)
	case "/v1/sessions":
		if !s.allow(w, r, http.MethodPost) {
			return
		}
		s.handleSubmit(w, r)
	default:
		s.routeSession(w, r)
	}
}

// routeSession resolves /v1/sessions/{id}[/report] — the parser half
// (splitSessionPath, parseSessionID) is pure and fuzz-tested.
func (s *Server) routeSession(w http.ResponseWriter, r *http.Request) {
	id, tail, ok := splitSessionPath(r.URL.Path)
	if !ok || (tail != "" && tail != "report") {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no route for %q", r.URL.Path))
		return
	}
	if !s.allow(w, r, http.MethodGet) {
		return
	}
	num, ok := parseSessionID(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("malformed session id %q (want s-<n>)", id))
		return
	}
	sess, status := s.st.get(num)
	switch status {
	case lookupUnknown:
		s.writeError(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("session %s was never created", formatSessionID(num)))
		return
	case lookupGone:
		s.writeError(w, http.StatusGone, "session_gone", fmt.Sprintf("session %s was evicted from the bounded store", formatSessionID(num)))
		return
	}
	if tail == "report" {
		s.handleReport(w, r, sess)
		return
	}
	s.handleStatus(w, sess)
}

// splitSessionPath splits "/v1/sessions/<id>[/<tail>]" into its id and
// tail segments. It does no validation beyond shape; parseSessionID and
// the route switch reject the rest.
func splitSessionPath(p string) (id, tail string, ok bool) {
	const prefix = "/v1/sessions/"
	if !strings.HasPrefix(p, prefix) {
		return "", "", false
	}
	rest := p[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i], rest[i+1:], rest[:i] != ""
	}
	return rest, "", rest != ""
}

// allow enforces the endpoint's method, answering 405 with an Allow
// header otherwise.
func (s *Server) allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Sprintf("%s requires %s", r.URL.Path, method))
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(w, r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding submission: %v", err))
		return
	}
	if len(req.Runs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "runs must not be empty")
		return
	}
	specs := make([]engine.RunSpec, len(req.Runs))
	for i, rr := range req.Runs {
		spec, err := rr.Spec()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("runs[%d]: %v", i, err))
			return
		}
		specs[i] = spec
	}
	sess := s.submit(specs)
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	s.writeJSON(w, http.StatusCreated, SubmitResponse{ID: sess.ID, State: StatePending.String(), Runs: len(specs)})
}

// decodeSubmit reads one submit body: at most maxSubmitBytes, with
// unknown fields rejected.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser) (SubmitRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleStatus(w http.ResponseWriter, sess *Session) {
	sess.mu.Lock()
	resp := StatusResponse{
		ID:      sess.ID,
		State:   sess.state.String(),
		Created: sess.created.UTC().Format(time.RFC3339Nano),
		Error:   sess.errMsg,
		Runs:    make([]RunStatus, len(sess.specs)),
	}
	for i, spec := range sess.specs {
		// Echo each run in the request's vocabulary: names, not enum values.
		mode := "intra"
		if spec.Level == gpu.PatchAPI {
			mode = "object"
		}
		resp.Runs[i] = RunStatus{Workload: spec.Workload.Name, Variant: spec.Variant.String(), Mode: mode, Sampling: spec.Sampling}
		if i < len(sess.results) && sess.results[i].Err != nil {
			resp.Runs[i].Error = sess.results[i].Err.Error()
		}
	}
	if sess.state == StateDone || sess.state == StateFailed {
		resp.Finished = sess.finished.UTC().Format(time.RFC3339Nano)
		resp.Engine = &EngineStats{
			Runs:   sess.stats.Runs,
			Hits:   sess.stats.Hits,
			Dedups: sess.stats.Dedups,
			Misses: sess.stats.Misses,
		}
		snap := sess.rec.Snapshot().ZeroWall()
		resp.Obs = &snap
	}
	sess.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, sess *Session) {
	sess.mu.Lock()
	state := sess.state
	results := sess.results
	sess.mu.Unlock()
	switch state {
	case StatePending, StateRunning:
		s.writeError(w, http.StatusConflict, "session_not_done", fmt.Sprintf("session %s is %s; poll its status until done", sess.ID, state))
		return
	case StateFailed:
		s.writeError(w, http.StatusConflict, "session_failed", fmt.Sprintf("session %s failed; its status carries the error", sess.ID))
		return
	}

	runIdx := 0
	if q := r.URL.Query().Get("run"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n >= len(results) {
			s.writeError(w, http.StatusBadRequest, "bad_run_index", fmt.Sprintf("run index %q out of range [0, %d)", q, len(results)))
			return
		}
		runIdx = n
	}

	name := r.URL.Query().Get("format")
	if name == "" {
		name = core.FormatText.String()
	}
	format, ok := core.ParseFormat(name)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "unknown_format", fmt.Sprintf("unknown format %q (want one of %s)", name, formatNames()))
		return
	}

	rep := results[runIdx].Report
	if rep == nil {
		s.writeError(w, http.StatusInternalServerError, "no_report", fmt.Sprintf("run %d produced no report", runIdx))
		return
	}
	// Render to a buffer first: an exporter error must yield a clean 500,
	// not a truncated 200 body.
	var buf bytes.Buffer
	if err := rep.Export(&buf, format); err != nil {
		s.writeError(w, http.StatusInternalServerError, "export_failed", fmt.Sprintf("exporting %s: %v", format, err))
		return
	}
	s.rec.AddNamed(obs.NamedServeExports, 1)
	w.Header().Set("Content-Type", contentTypeOf(format))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// formatNames renders the exportable formats for error messages, in the
// registry's deterministic order.
func formatNames() string {
	var names []string
	for _, f := range core.Formats() {
		names = append(names, f.String())
	}
	return strings.Join(names, ", ")
}

// contentTypeOf maps a format to its media type.
func contentTypeOf(f core.Format) string {
	switch f {
	case core.FormatGUI, core.FormatProfile:
		return "application/json"
	case core.FormatHTML:
		return "text/html; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleMetrics renders the merged observability picture as text: the
// store/session account, the shared engine's cumulative stats, then the
// master recorder snapshot (serve counters plus merged per-session
// recorders) without wall-clock bytes.
func (s *Server) handleMetrics(w http.ResponseWriter) {
	var b bytes.Buffer
	sum := s.Summary()
	fmt.Fprintf(&b, "# drgpum-serve metrics\n")
	fmt.Fprintf(&b, "sessions issued %d\n", sum.Issued)
	fmt.Fprintf(&b, "sessions resident %d\n", sum.Resident)
	fmt.Fprintf(&b, "sessions done %d\n", sum.Done)
	fmt.Fprintf(&b, "sessions failed %d\n", sum.Failed)
	fmt.Fprintf(&b, "evictions lru %d\n", sum.EvictedLRU)
	fmt.Fprintf(&b, "evictions ttl %d\n", sum.EvictedTTL)
	es := s.eng.Stats()
	fmt.Fprintf(&b, "engine runs %d\n", es.Runs)
	fmt.Fprintf(&b, "engine hits %d\n", es.Hits)
	fmt.Fprintf(&b, "engine dedups %d\n", es.Dedups)
	fmt.Fprintf(&b, "engine misses %d\n", es.Misses)
	s.rec.Snapshot().WriteText(&b, false)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	w.Write(b.Bytes())
}

// writeJSON renders a 2xx JSON document.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode_failed", err.Error())
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeError renders the structured error body.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	body, _ := json.Marshal(ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
