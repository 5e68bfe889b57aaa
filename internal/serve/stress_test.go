// The concurrency stress harness, meant for -race: many goroutines
// submitting overlapping batches through real HTTP while an evictor
// sweeps the bounded store, then the engine's accounting invariant and
// the cross-session singleflight dedup are asserted on the wreckage.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// stringsReader narrows strings.NewReader to what the stress goroutines
// need (a fresh body per POST).
func stringsReader(s string) io.Reader { return strings.NewReader(s) }

// decodeInto is the error-returning form of decodeError/submitSession —
// the stress goroutines must not call t.Fatalf off the test goroutine.
func decodeInto(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, raw)
	}
	return json.Unmarshal(raw, v)
}

// pollDone polls a session until it leaves pending/running, or returns
// nil on timeout or transport error.
func pollDone(ts *httptest.Server, id string, timeout time.Duration) *StatusResponse {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id)
		if err != nil {
			return nil
		}
		var st StatusResponse
		if err := decodeInto(resp, http.StatusOK, &st); err != nil {
			return nil
		}
		if st.State == "done" || st.State == "failed" {
			return &st
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func TestConcurrentSessionsStress(t *testing.T) {
	eng := engine.New(engine.Config{})
	const capacity = 8
	s := New(Config{Engine: eng, Capacity: capacity, TTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)

	// The evictor: sweeps concurrently with submissions and checks the
	// capacity bound the whole time.
	stopEvictor := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() {
		defer close(evictorDone)
		for {
			select {
			case <-stopEvictor:
				return
			default:
			}
			s.SweepExpired()
			if r := s.Summary().Resident; r > capacity {
				t.Errorf("resident sessions %d exceed capacity %d", r, capacity)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Rounds of G goroutines all submitting the same batch: the first
	// execution is a miss, concurrent submissions of the same tuple must
	// piggyback (dedups) or reuse (hits). Each round uses a fresh
	// sampling period, i.e. a fresh cache key, so a late round can still
	// produce in-flight overlap if an earlier one resolved too fast.
	const goroutines = 8
	const maxRounds = 5
	rounds := 0
	for round := 0; round < maxRounds; round++ {
		rounds++
		body := fmt.Sprintf(
			`{"runs":[{"workload":"polybench/2mm","mode":"object","sampling":%d},{"workload":"polybench/bicg","mode":"object","sampling":%d}]}`,
			100+round, 100+round)
		errs := make([]string, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", stringsReader(body))
				if err != nil {
					errs[g] = err.Error()
					return
				}
				var sub SubmitResponse
				if err := decodeInto(resp, 201, &sub); err != nil {
					errs[g] = err.Error()
					return
				}
				st := pollDone(ts, sub.ID, 60*time.Second)
				if st == nil {
					errs[g] = "session " + sub.ID + " did not finish"
					return
				}
				if st.State != "done" {
					errs[g] = "session " + sub.ID + " ended " + st.State + ": " + st.Error
					return
				}
				// The per-batch delta must satisfy the engine invariant
				// on its own.
				if st.Engine == nil || st.Engine.Hits+st.Engine.Dedups+st.Engine.Misses != st.Engine.Runs {
					errs[g] = fmt.Sprintf("session %s batch stats violate invariant: %+v", sub.ID, st.Engine)
				}
			}(g)
		}
		wg.Wait()
		for g, e := range errs {
			if e != "" {
				t.Fatalf("round %d goroutine %d: %s", round, g, e)
			}
		}
		if eng.Stats().Dedups > 0 {
			break
		}
	}

	close(stopEvictor)
	<-evictorDone
	s.Drain()

	st := eng.Stats()
	if st.Hits+st.Dedups+st.Misses != st.Runs {
		t.Fatalf("engine stats %+v violate runs=hits+dedups+misses after stress", st)
	}
	if st.Dedups == 0 {
		t.Fatalf("no cross-session singleflight dedup occurred after %d rounds: %+v", maxRounds, st)
	}
	// Every round submits the same two workloads under a fresh sampling
	// period: exactly one miss per distinct (workload, sampling) key, so
	// two per round, however many sessions submitted the key.
	if want := 2 * rounds; st.Misses != want {
		t.Fatalf("misses %d after %d round(s), want %d", st.Misses, rounds, want)
	}
	if r := s.Summary().Resident; r > capacity {
		t.Fatalf("resident sessions %d exceed capacity %d after stress", r, capacity)
	}
}

// TestConcurrentPipelinedSessionsMatchOffline is the pipelined leg of the
// stress suite: several intra-object sessions run concurrently at
// GOMAXPROCS 2 or more, so each run pipelines its ingest — multiple
// consumer goroutines are live inside one engine at once, stacked on the
// engine's own run parallelism — and every report fetched over HTTP must
// still be byte-identical, in every exportable format, to an offline run
// of the same workload that ingested synchronously at GOMAXPROCS 1.
// Meant for -race: the identity check doubles as a determinism probe over
// genuinely interleaved pipelined executions.
func TestConcurrentPipelinedSessionsMatchOffline(t *testing.T) {
	// core.Attach pipelines an intra-object run when a second core is
	// free; raise GOMAXPROCS so the sessions do on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	eng := engine.New(engine.Config{})
	s := New(Config{Engine: eng, Capacity: 16, TTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)

	// Distinct workloads per session: identical tuples would collapse
	// into one execution via the engine cache, and the point here is
	// concurrent pipelined runs.
	names := []string{"simplemulticopy", "polybench/bicg", "rodinia/huffman", "polybench/2mm"}
	ids := make([]string, len(names))
	errs := make([]string, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"runs":[{"workload":%q}]}`, name)
			resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", stringsReader(body))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			var sub SubmitResponse
			if err := decodeInto(resp, 201, &sub); err != nil {
				errs[i] = err.Error()
				return
			}
			st := pollDone(ts, sub.ID, 60*time.Second)
			if st == nil {
				errs[i] = "session " + sub.ID + " did not finish"
				return
			}
			if st.State != "done" {
				errs[i] = "session " + sub.ID + " ended " + st.State + ": " + st.Error
				return
			}
			ids[i] = sub.ID
		}(i, name)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("%s: %s", names[i], e)
		}
	}

	// The references ingest synchronously: at GOMAXPROCS 1 Attach delivers
	// every access batch inline.
	reps := make([]*core.Report, len(names))
	prev := runtime.GOMAXPROCS(1)
	for i, name := range names {
		wl, ok := workloads.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		reps[i] = offlineReport(t, wl, workloads.VariantNaive, gpu.PatchFull, 1)
	}
	runtime.GOMAXPROCS(prev)

	for i, name := range names {
		rep := reps[i]
		for _, f := range core.Formats() {
			var want bytes.Buffer
			if err := rep.Export(&want, f); err != nil {
				t.Fatalf("offline export %s %s: %v", name, f, err)
			}
			status, got := httpGet(t, ts, "/v1/sessions/"+ids[i]+"/report?format="+f.String())
			if status != http.StatusOK {
				t.Fatalf("%s report format=%s: status %d, body %.200s", name, f, status, got)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s format %s: pipelined HTTP bytes differ from offline export (%d vs %d bytes)",
					name, f, len(got), want.Len())
			}
		}
	}
}
