package engine

import (
	"fmt"
	"time"

	"drgpum/internal/baselines"
	"drgpum/internal/callpath"
	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/memcheck"
	"drgpum/internal/obs"
	"drgpum/internal/pool"
	"drgpum/internal/workloads"
)

// exec dispatches one run body. Every body builds its own gpu.Device, so
// runs are fully independent; the wall clock starts after device
// construction (matching the overhead figure's methodology) and, for
// profile runs, includes offline analysis — analysis is part of the
// profiling cost the paper measures. rec is the run's private
// self-observability recorder (nil when the engine has none): profile
// runs record into it, baselines runs record the memory-safety checker's
// scan, and native runs have nothing to record.
func exec(s RunSpec, rec *obs.Recorder) Result {
	switch s.Mode {
	case ModeNative:
		return execNative(s)
	case ModeBaselines:
		return execBaselines(s, rec)
	default:
		return execProfile(s, rec)
	}
}

// execProfile is the engine's form of a standard DrGPUM profiling run
// (the paper's configuration, as every driver runs it): object-level at
// gpu.PatchAPI, intra-object at gpu.PatchFull with the workload's paper
// kernel whitelist and the spec'd sampling period.
func execProfile(s RunSpec, rec *obs.Recorder) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	cfg := core.DefaultConfig()
	cfg.Level = s.Level
	cfg.SamplingPeriod = s.Sampling
	cfg.Memcheck = s.Memcheck
	cfg.Obs = rec
	if s.Level == gpu.PatchFull {
		cfg.KernelWhitelist = s.Workload.IntraKernels
	}
	if s.Streaming {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: s.Window}
	}
	// core.Attach decides whether the run pipelines its ingest.
	prof := core.Attach(dev, cfg)
	// Entered through callpath.Enter, the run's call paths end at the workload.
	if err := callpath.Enter(func() error { return s.Workload.Run(dev, prof, s.Variant) }); err != nil {
		dev.StopPipelinedIngest() // no Finish on this path: join the consumer here
		return Result{Err: fmt.Errorf("%s (%s): %w", s.Workload.Name, s.Variant, err)}
	}
	rep := prof.Finish()
	return Result{Report: rep, Wall: time.Since(start)}
}

// execNative runs without any instrumentation: the Figure 6 baseline and
// the Table 4 speedup measurements. Cycles is the simulated device time.
func execNative(s RunSpec) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	if err := s.Workload.Run(dev, workloads.NopHost(), s.Variant); err != nil {
		return Result{Err: fmt.Errorf("%s (%s): %w", s.Workload.Name, s.Variant, err)}
	}
	return Result{Cycles: dev.Elapsed(), Wall: time.Since(start)}
}

// execBaselines runs the Table 5 comparison tools on one fully
// instrumented device that DrGPUM does not profile: the ValueExpert-style
// value profiler and the memory-safety checker, the repo's Compute
// Sanitizer analog, which the zero-false-positive gate reads as well.
// Level and Sampling are ignored: both tools observe every kernel.
func execBaselines(s RunSpec, rec *obs.Recorder) Result {
	dev := gpu.NewDevice(s.Spec)
	// Before anything else, as in core.Attach: the checker reshapes the
	// allocator (red zones, quarantine) before the first allocation.
	c := memcheck.Attach(dev, memcheck.DefaultConfig())
	c.SetObs(rec)
	vex := baselines.NewValueExpert()
	dev.AddHook(vex)
	dev.SetPatchLevel(gpu.PatchFull)
	if err := callpath.Enter(func() error { return s.Workload.Run(dev, checkerHost{c}, s.Variant) }); err != nil {
		return Result{Err: fmt.Errorf("%s (%s) baselines: %w", s.Workload.Name, s.Variant, err)}
	}
	return Result{ValueExpert: vex.DetectedPatterns(), Memcheck: c.Report()}
}

// checkerHost forwards workload annotations to the checker so memcheck
// reports name objects; pool attachment is ignored (memcheck tracks
// driver allocations).
type checkerHost struct{ c *memcheck.Checker }

func (h checkerHost) Annotate(ptr gpu.DevicePtr, label string, _ uint32) bool {
	h.c.Annotate(ptr, label)
	return true
}
func (h checkerHost) AttachPool(pool.Observable) {}
