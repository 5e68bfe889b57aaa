package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// cheap workloads for scheduling-focused tests.
var cheapNames = []string{"simplemulticopy", "polybench/bicg", "rodinia/huffman"}

func cheapWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	ws := make([]*workloads.Workload, len(cheapNames))
	for i, name := range cheapNames {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		ws[i] = w
	}
	return ws
}

// TestResultsAreIndexAddressed pins the determinism foundation: results[i]
// belongs to specs[i] no matter how the pool schedules, so a batch mixing
// distinct workloads must come back with each report attached to its own
// program.
func TestResultsAreIndexAddressed(t *testing.T) {
	ws := cheapWorkloads(t)
	for _, cfg := range []engine.Config{{Workers: 1}, {Workers: 4}} {
		e := engine.New(cfg)
		var specs []engine.RunSpec
		for _, w := range ws {
			specs = append(specs, engine.RunSpec{
				Workload: w,
				Spec:     gpu.SpecRTX3090(),
				Variant:  workloads.VariantNaive,
				Level:    gpu.PatchFull,
				Sampling: 1,
			})
		}
		results, err := e.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if results[i].Report == nil {
				t.Fatalf("cfg %+v: results[%d] has no report", cfg, i)
			}
			// Each cheap workload has a distinct pattern count; compare
			// against a direct single-spec run of the same tuple.
			single, err := engine.New(engine.Config{}).Run([]engine.RunSpec{specs[i]})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(results[i].Report.PatternSet())
			want := fmt.Sprint(single[0].Report.PatternSet())
			if got != want {
				t.Errorf("cfg %+v: %s pattern set %s, want %s", cfg, w.Name, got, want)
			}
		}
	}
}

// TestCacheMemoizesAndCounts pins the cache contract: the same tuple
// executes once per engine, repeats are hits (or singleflight dedups when
// in flight), and cached callers share one report pointer.
func TestCacheMemoizesAndCounts(t *testing.T) {
	w, _ := workloads.ByName("simplemulticopy")
	spec := engine.RunSpec{
		Workload: w,
		Spec:     gpu.SpecRTX3090(),
		Variant:  workloads.VariantNaive,
		Level:    gpu.PatchAPI,
	}
	e := engine.New(engine.Config{Workers: 1})
	first, err := e.Run([]engine.RunSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Runs != 3 || s.Misses != 1 || s.Hits != 2 || s.Dedups != 0 {
		t.Fatalf("one-worker stats = %+v, want 3 runs / 1 miss / 2 hits", s)
	}
	if first[0].Report != first[1].Report || first[1].Report != first[2].Report {
		t.Error("cached requests did not share one report")
	}

	again, err := e.Run([]engine.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats after second batch = %+v, want still 1 miss", s)
	}
	if again[0].Report != first[0].Report {
		t.Error("second batch did not reuse the cache")
	}

	// A parallel engine over duplicated specs must also execute exactly
	// once (waiters either hit the completed entry or dedup onto the
	// in-flight one).
	p := engine.New(engine.Config{Workers: 4})
	if _, err := p.Run([]engine.RunSpec{spec, spec, spec, spec}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != 1 || s.Hits+s.Dedups != 3 {
		t.Fatalf("parallel stats = %+v, want 1 miss and 3 hits+dedups", s)
	}
}

// TestErrorPropagation: a failing run surfaces as both the batch error
// and the per-result error, the failure is memoized like any result, and
// the other runs in the batch still complete.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	bad := &workloads.Workload{
		Name: "engine-test/boom",
		Run: func(dev *gpu.Device, host workloads.Host, v workloads.Variant) error {
			return boom
		},
	}
	good, _ := workloads.ByName("simplemulticopy")
	e := engine.New(engine.Config{Workers: 2})
	specs := []engine.RunSpec{
		{Mode: engine.ModeNative, Workload: bad, Spec: gpu.SpecRTX3090(), Variant: workloads.VariantNaive},
		{Mode: engine.ModeNative, Workload: good, Spec: gpu.SpecRTX3090(), Variant: workloads.VariantNaive},
	}
	results, err := e.Run(specs)
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v, want the workload's failure", err)
	}
	if !errors.Is(results[0].Err, boom) {
		t.Errorf("results[0].Err = %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Cycles == 0 {
		t.Errorf("healthy neighbor did not complete: %+v", results[1])
	}
	if _, err := e.Run(specs[:1]); !errors.Is(err, boom) {
		t.Errorf("memoized failure not replayed: %v", err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure cached (2 misses, 1 hit)", s)
	}
}

// TestFailedProfileLeavesNoGoroutine: a profiling run whose workload fails
// returns without Finish, and at GOMAXPROCS 2 its ingest pipelines, so the
// engine stops the pipeline itself. No goroutine outlives the run.
func TestFailedProfileLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("boom")
	bad := &workloads.Workload{
		Name: "engine-test/boom-after-kernel",
		Run: func(dev *gpu.Device, host workloads.Host, v workloads.Variant) error {
			ptr, err := dev.Malloc(1 << 16)
			if err != nil {
				return err
			}
			err = dev.LaunchFunc(nil, "sweep", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
				for i := 0; i < 10000; i++ {
					ctx.LoadF32(ptr + gpu.DevicePtr(4*(i%(1<<14))))
				}
			})
			if err != nil {
				return err
			}
			return boom
		},
	}
	before := runtime.NumGoroutine()
	spec := engine.RunSpec{Mode: engine.ModeProfile, Workload: bad, Spec: gpu.SpecRTX3090(), Level: gpu.PatchFull}
	if _, err := engine.New(engine.Config{Workers: 1}).Run([]engine.RunSpec{spec}); !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want the workload's failure", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) outlived the failed run", runtime.NumGoroutine()-before)
		}
	}
}
