package engine_test

import (
	"bytes"
	"testing"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/tables"
	"drgpum/internal/workloads"
)

// renderEvaluation regenerates Tables 1, 4 and 5 through the given engine
// and concatenates every rendered byte. The overhead figure is not here:
// it runs on its own one-worker engines, never in parallel, and
// TestOverheadTable pins its row order.
func renderEvaluation(t *testing.T, e *engine.Engine) string {
	t.Helper()
	var buf bytes.Buffer

	rows1, err := tables.Table1(e, gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	tables.RenderTable1(&buf, rows1)

	rows4, err := tables.Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	tables.RenderTable4(&buf, rows4)

	rows5, err := tables.Table5(e, gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	tables.RenderTable5(&buf, rows5)

	return buf.String()
}

// TestEvaluationDeterminism is the whole-evaluation analog of
// core.TestAnalysisDeterminism: every rendered table must be
// byte-identical between the one-worker reference scheduling (submission
// order on the calling goroutine), the parallel worker pool, and two
// consecutive parallel runs on fresh engines (fresh, so the second run
// re-executes instead of trivially replaying the first run's cache).
func TestEvaluationDeterminism(t *testing.T) {
	seq := renderEvaluation(t, engine.New(engine.Config{Workers: 1}))
	par := renderEvaluation(t, engine.New(engine.Config{Workers: 8}))
	again := renderEvaluation(t, engine.New(engine.Config{Workers: 8}))
	if par != seq {
		t.Errorf("parallel and one-worker renders differ (%d vs %d bytes)", len(par), len(seq))
	}
	if par != again {
		t.Errorf("two parallel renders differ (%d vs %d bytes)", len(par), len(again))
	}
	if len(seq) == 0 {
		t.Fatal("empty render")
	}
}

// TestCrossDriverCacheReuse pins the memoization payoff the engine exists
// for: Table 5's DrGPUM column needs exactly the profiles Table 1 already
// computed, so on a shared engine the whole sweep is served from cache.
func TestCrossDriverCacheReuse(t *testing.T) {
	e := engine.New(engine.Config{})
	if _, err := tables.Table1(e, gpu.SpecRTX3090()); err != nil {
		t.Fatal(err)
	}
	// One fresh profile per registered workload (12 paper programs plus
	// the 2 uncoalesced-access companions).
	nw := len(workloads.All())
	after1 := e.Stats()
	if after1.Misses != nw || after1.Hits != 0 {
		t.Fatalf("Table 1 stats = %+v, want %d fresh profiles", after1, nw)
	}
	if _, err := tables.Table5(e, gpu.SpecRTX3090()); err != nil {
		t.Fatal(err)
	}
	after5 := e.Stats()
	if got := after5.Hits + after5.Dedups; got < nw {
		t.Errorf("Table 5 reused %d cached profiles, want all %d", got, nw)
	}
	// Only the baseline runs are new work.
	if got := after5.Misses - after1.Misses; got != nw {
		t.Errorf("Table 5 executed %d fresh runs, want exactly the %d baseline runs", got, nw)
	}
}
