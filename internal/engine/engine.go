// Package engine is the deterministic parallel run engine behind every
// evaluation driver: the paper's tables, the overhead figure, the
// memcheck regression gate, the CLI tools and the profiling server all
// describe their profiling runs as RunSpec values and hand the whole
// batch to an Engine instead of executing them one at a time. A run is a
// DrGPUM profile, a native run, or a baselines run, whose memory-safety
// report serves both Table 5 and the memcheck gate. Request is a run in
// the vocabulary the drgpum CLI and drgpum-serve share; its Spec method
// is the one parser of that vocabulary.
//
// Two properties make the engine safe to put under byte-identical
// renderers:
//
//   - Index-addressed results. Run returns a slice parallel to its
//     input: results[i] always belongs to specs[i], no matter which
//     worker finished it or in what order. Drivers consume results in
//     submission order, so every rendered table is byte-identical to
//     the in-order loop of a one-worker engine (Config{Workers: 1}
//     pins that equivalence in tests).
//   - Memoized profiles. Runs are cached under their full configuration
//     (mode, workload, device spec, variant, patch level, sampling
//     period, streaming window, memcheck flag) with singleflight
//     semantics: concurrent requests for the same tuple share one
//     execution. Table 1, Table 5, the memcheck gate and the CLIs run
//     overlapping tuples; each is computed once per process.
//     Stats reports the hit/miss/dedup counts.
//
// A wall-clock measurement needs runs that really execute and execute
// alone. It gets them from a fresh engine with one worker: the empty
// cache executes every run, and the single worker runs them one at a
// time (internal/overhead).
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/memcheck"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// Mode selects what one run executes and which Result field it fills.
type Mode uint8

const (
	// ModeProfile attaches the DrGPUM profiler and yields Result.Report.
	ModeProfile Mode = iota
	// ModeNative runs uninstrumented and yields Result.Cycles (simulated
	// device time) plus Result.Wall.
	ModeNative
	// ModeBaselines runs the Table 5 comparison tools on one fully
	// instrumented device: the ValueExpert-style value profiler and the
	// memory-safety checker (internal/memcheck, the Compute Sanitizer
	// analog). It yields Result.ValueExpert and Result.Memcheck.
	ModeBaselines
)

// String names the mode (also the engine/<mode> span name).
func (m Mode) String() string {
	switch m {
	case ModeProfile:
		return "profile"
	case ModeNative:
		return "native"
	case ModeBaselines:
		return "baselines"
	default:
		return "unknown"
	}
}

// RunSpec describes one run. Workload.Name identifies the program in the
// cache key, so two specs naming the same registered workload share a
// cache entry.
type RunSpec struct {
	Mode     Mode
	Workload *workloads.Workload
	Spec     gpu.DeviceSpec
	Variant  workloads.Variant
	// Level is the instrumentation granularity of a ModeProfile run; at
	// gpu.PatchFull the workload's paper kernel whitelist is applied.
	Level gpu.PatchLevel
	// Sampling is the intra-object kernel sampling period (<=1 means
	// every launch).
	Sampling int
	// Streaming runs a ModeProfile body with the streaming window manager
	// (core.Config.Streaming): incremental analysis, bounded collector
	// memory, temporal heat map. Window is the kernel-epoch length
	// (<= 0 selects the core default).
	Streaming bool
	Window    int
	// Memcheck attaches the memory-safety checker to a ModeProfile run
	// (core.Config.Memcheck).
	Memcheck bool
}

// Request is one profiling run in the vocabulary the drgpum CLI's flags
// and the drgpum-serve submit body share. Empty strings and zero numbers
// select the CLI defaults: naive, rtx3090, intra, sampling 1.
type Request struct {
	Workload  string `json:"workload"`
	Variant   string `json:"variant,omitempty"`
	Device    string `json:"device,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Sampling  int    `json:"sampling,omitempty"`
	Streaming bool   `json:"streaming,omitempty"`
	Window    int    `json:"window,omitempty"`
	Memcheck  bool   `json:"memcheck,omitempty"`
}

// ErrUnknownWorkload is wrapped by the error Spec returns for a workload
// name that is not registered.
var ErrUnknownWorkload = errors.New("unknown workload")

// Spec validates the request and maps it to the ModeProfile run it
// names. Names match case-insensitively; a negative sampling period or
// window, or a window without streaming, is an error rather than a
// silently ignored setting.
func (r Request) Spec() (RunSpec, error) {
	w, ok := workloads.Lookup(r.Workload)
	if !ok {
		return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownWorkload, r.Workload)
	}
	s := RunSpec{
		Mode:      ModeProfile,
		Workload:  w,
		Sampling:  max(r.Sampling, 1),
		Streaming: r.Streaming,
		Window:    r.Window,
		Memcheck:  r.Memcheck,
	}
	switch strings.ToLower(r.Device) {
	case "", "rtx3090":
		s.Spec = gpu.SpecRTX3090()
	case "a100":
		s.Spec = gpu.SpecA100()
	default:
		return RunSpec{}, fmt.Errorf("unknown device %q (want rtx3090 or a100)", r.Device)
	}
	switch strings.ToLower(r.Variant) {
	case "", "naive":
		s.Variant = workloads.VariantNaive
	case "optimized":
		s.Variant = workloads.VariantOptimized
	default:
		return RunSpec{}, fmt.Errorf("unknown variant %q (want naive or optimized)", r.Variant)
	}
	switch strings.ToLower(r.Mode) {
	case "", "intra":
		s.Level = gpu.PatchFull
	case "object":
		s.Level = gpu.PatchAPI
	default:
		return RunSpec{}, fmt.Errorf("unknown mode %q (want object or intra)", r.Mode)
	}
	if r.Sampling < 0 {
		return RunSpec{}, fmt.Errorf("sampling must be >= 0, got %d", r.Sampling)
	}
	if r.Window < 0 {
		return RunSpec{}, fmt.Errorf("window must be >= 0, got %d", r.Window)
	}
	if r.Window > 0 && !r.Streaming {
		return RunSpec{}, errors.New("window requires streaming")
	}
	return s, nil
}

// Result is one run's outcome; the populated field depends on the mode.
// Cached results are shared between callers, so reports must be treated
// as read-only.
type Result struct {
	Report   *core.Report
	Memcheck *memcheck.Report
	// ValueExpert is the pattern set a ModeBaselines run's value profiler
	// lets a user reason about.
	ValueExpert []pattern.Pattern
	// Cycles is the simulated device time of a ModeNative run.
	Cycles uint64
	// Wall is the host wall-clock duration of a ModeProfile or ModeNative
	// run body (device construction excluded, analysis included), measured
	// at execution time — a cache hit returns the original execution's
	// Wall.
	Wall time.Duration
	Err  error
}

// Stats counts what the engine did. Runs = Hits + Dedups + Misses.
type Stats struct {
	// Runs is the number of specs submitted.
	Runs int
	// Hits are requests served from a completed cache entry.
	Hits int
	// Dedups are requests that piggybacked on an in-flight execution of
	// the same tuple (singleflight).
	Dedups int
	// Misses are fresh executions that populated the cache.
	Misses int
}

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent runs; <=0 means GOMAXPROCS. The
	// effective pool is min(Workers, len(specs)). A pool of one runs the
	// batch in submission order on the calling goroutine: the reference
	// scheduling the determinism tests compare the pool against.
	Workers int
	// Obs, when enabled, is the engine's master self-observability
	// recorder. Every executed (non-cached) run gets a fresh per-run
	// recorder — so each Report's snapshot is run-local and byte-identical
	// regardless of scheduling — and the run's snapshot is merged into Obs
	// after the body finishes, under an engine/<mode> span. The Stats
	// counters are mirrored onto Obs as they accumulate. Note the
	// hits/dedups split depends on scheduling; only their sum is
	// deterministic across one-worker and parallel runs.
	Obs *obs.Recorder
}

// Engine schedules runs and owns the profile cache. The zero value is
// not usable; construct with New.
type Engine struct {
	cfg Config

	mu    sync.Mutex // guards cache and stats
	cache map[key]*entry
	stats Stats
}

// key is the memoization key: the full run configuration, with the
// workload named rather than pointed to (spec.Workload is nil).
type key struct {
	spec     RunSpec
	workload string
}

func keyOf(s RunSpec) key {
	name := s.Workload.Name
	s.Workload = nil
	return key{spec: s, workload: name}
}

// entry is a singleflight cache slot: done closes when res is valid.
type entry struct {
	done chan struct{}
	res  Result
}

// New returns an engine with an empty cache.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, cache: make(map[key]*entry)}
}

// defaultEngine is the process-wide engine the drgpum CLI and callers
// without an engine of their own share, so runs are reused across
// drivers within one process.
var defaultEngine = New(Config{})

// Default returns the shared process-wide engine.
func Default() *Engine { return defaultEngine }

// workers resolves the effective pool size for a batch of n specs.
func (e *Engine) workers(n int) int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every spec and returns the results in submission order,
// plus the first error (in submission order, not completion order) if
// any run failed. The result slice is always fully populated, so callers
// needing per-run context can scan it themselves.
func (e *Engine) Run(specs []RunSpec) ([]Result, error) {
	results, _, err := e.RunWithStats(specs)
	return results, err
}

// RunWithStats is Run plus a batch-local Stats delta: how this batch was
// satisfied (fresh executions, completed-entry hits, in-flight dedups),
// independent of whatever other batches the shared engine served
// concurrently. Stats.Runs always equals len(specs) and the
// runs=hits+dedups+misses invariant holds per batch; note
// the hits/dedups split depends on scheduling, only their sum is
// deterministic. Multi-tenant callers (the drgpum-serve session store)
// use the delta to attribute shared-cache reuse to one submission.
//
// The fan-out uses the module's sanctioned concurrency shape (the
// sharedwrite lint contract): a semaphore bounds in-flight goroutines to
// the pool size, and each goroutine writes only results[i] and kinds[i]
// for the index it received as a parameter.
func (e *Engine) RunWithStats(specs []RunSpec) ([]Result, Stats, error) {
	results := make([]Result, len(specs))
	kinds := make([]runKind, len(specs))
	if nw := e.workers(len(specs)); nw == 1 {
		for i := range specs {
			results[i], kinds[i] = e.runOne(specs[i])
		}
	} else {
		sem := make(chan struct{}, nw)
		var wg sync.WaitGroup
		for i := range specs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				results[i], kinds[i] = e.runOne(specs[i])
				<-sem
			}(i)
		}
		wg.Wait()
	}
	batch := Stats{Runs: len(specs)}
	for _, k := range kinds {
		switch k {
		case runHit:
			batch.Hits++
		case runDedup:
			batch.Dedups++
		case runMiss:
			batch.Misses++
		}
	}
	for i := range results {
		if results[i].Err != nil {
			return results, batch, results[i].Err
		}
	}
	return results, batch, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// runKind classifies how runOne satisfied one spec — the per-spec form
// of the Stats fields, accumulated into batch deltas by RunWithStats.
type runKind uint8

const (
	runMiss runKind = iota
	runHit
	runDedup
)

// runOne resolves one spec through the cache with singleflight
// semantics.
func (e *Engine) runOne(s RunSpec) (Result, runKind) {
	e.mu.Lock()
	e.stats.Runs++
	e.cfg.Obs.Add(obs.CtrEngineRuns, 1)
	k := keyOf(s)
	if ent, ok := e.cache[k]; ok {
		kind := runHit
		select {
		case <-ent.done:
			e.stats.Hits++
			e.cfg.Obs.Add(obs.CtrEngineHits, 1)
		default:
			kind = runDedup
			e.stats.Dedups++
			e.cfg.Obs.Add(obs.CtrEngineDedups, 1)
		}
		e.mu.Unlock()
		<-ent.done
		return ent.res, kind
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[k] = ent
	e.stats.Misses++
	e.cfg.Obs.Add(obs.CtrEngineMisses, 1)
	e.mu.Unlock()
	ent.res = e.execObserved(s)
	close(ent.done)
	return ent.res, runMiss
}

// execObserved runs one body, threading self-observability: with the
// master recorder enabled the body gets a fresh per-run recorder (keeping
// each Report's snapshot run-local, hence byte-identical no matter which
// worker ran it), the execution is timed under an engine/<mode> span on
// the master, and the run's snapshot is merged in afterwards. Merging is
// pure addition, so the aggregate is independent of completion order.
func (e *Engine) execObserved(s RunSpec) Result {
	master := e.cfg.Obs
	if !master.Enabled() {
		return exec(s, nil)
	}
	runRec := obs.New()
	sp := master.Root().Child("engine").Child(s.Mode.String()).Start()
	res := exec(s, runRec)
	sp.End()
	master.Merge(runRec.Snapshot())
	return res
}
