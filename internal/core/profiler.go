// Package core implements the DrGPUM profiler: it wires the online data
// collector to a device, drives the dependency and peak analyses, runs the
// object-level and intra-object pattern detectors, and assembles the final
// report with call paths, inefficiency distances, severities and
// optimization suggestions (paper §4's four-stage workflow).
package core

import (
	"runtime"
	"sort"

	"drgpum/internal/advisor"
	"drgpum/internal/costmodel"
	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/memcheck"
	"drgpum/internal/objlevel"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/peak"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
)

// Config carries every user-tunable knob the paper describes.
type Config struct {
	// Level selects the analysis granularity: gpu.PatchAPI for object-level
	// analysis only, gpu.PatchFull to add intra-object analysis.
	Level gpu.PatchLevel
	// ObjLevel holds the object-level detector thresholds.
	ObjLevel objlevel.Config
	// IntraObj holds the intra-object detector thresholds.
	IntraObj intraobj.Config
	// TopPeaks is how many memory peaks the analyzer reports (paper: 2;
	// <= 0 selects that default).
	TopPeaks int
	// KernelWhitelist restricts intra-object instrumentation to the listed
	// kernel names (paper §5.5). Empty means all kernels.
	KernelWhitelist []string
	// SamplingPeriod instruments every Nth launch of each kernel for
	// intra-object analysis (paper §5.5; Figure 6 uses 100). Values <= 1
	// instrument every launch.
	SamplingPeriod int
	// ObjectIDMode selects the kernel object-identification scheme; the
	// default is the paper's optimized hit-flag design.
	ObjectIDMode gpu.ObjectIDMode
	// Memcheck attaches the memory-safety checker (internal/memcheck) to
	// the run: the allocator gains red zones and a freed-range quarantine,
	// and the report gains an out-of-bounds / use-after-free /
	// uninitialized-read / leak section. Address layout and the allocator's
	// in-use accounting change under memcheck, so leave it off for the
	// paper's peak-memory and overhead measurements.
	Memcheck bool
	// Obs installs a self-observability recorder (internal/obs): attach,
	// ingestion, finalization, every offline analyzer and the memcheck scan
	// report phase spans and counters into it, and the report carries a
	// snapshot (Report.Obs, Report.Stats). Nil disables self-observability
	// at near-zero cost. Sharing one recorder across several profilers
	// aggregates them (counter updates are atomic; same-name spans merge).
	Obs *obs.Recorder
	// Streaming retires the trace's history in kernel-epoch windows, for
	// bounded collector memory and a temporal heat map (Report.Heat).
	// Finish reports stay byte-identical to an offline run's; see
	// StreamingConfig.
	Streaming StreamingConfig
	// PipelinedIngest has no effect.
	//
	// Deprecated: Attach pipelines ingest on its own whenever a second
	// core is free, at either analysis level (see Attach).
	PipelinedIngest bool
	// PipelineShards has no effect.
	//
	// Deprecated: intra-object accumulation always runs on the goroutine
	// that delivers accesses; the shard workers this field sized are gone.
	PipelineShards int
	// CostModel configures the memory-hierarchy cost model (DESIGN.md
	// §4.10). The model is on by default: kernels account per-warp
	// transactions against a modeled L1/L2/DRAM hierarchy, every finding
	// carries a ModeledCycles/CyclesSaved estimate, severity ranks by
	// cycles saved, and the uncoalesced-access detector runs.
	CostModel CostModelConfig
}

// CostModelConfig carries the cost-model knobs (Config.CostModel).
type CostModelConfig struct {
	// Disabled turns the model off: findings carry no cycle estimates,
	// severity falls back to the byte-based formula, and no
	// uncoalesced-access detection runs.
	Disabled bool
	// Spec overrides the model parameters. The zero Spec (SectorBytes ==
	// 0) derives parameters from the attached device (costmodel.SpecFor).
	Spec costmodel.Spec
	// MinWarps is the minimum modeled warp count before the
	// uncoalesced-access detector reports an object; tiny kernels produce
	// unstable transaction ratios. <= 0 selects DefaultUCMinWarps.
	MinWarps int
	// ExcessRatio is the transactions-to-ideal ratio at which an object's
	// kernel traffic counts as uncoalesced. <= 0 selects
	// DefaultUCExcessRatio.
	ExcessRatio float64
}

// DefaultUCMinWarps and DefaultUCExcessRatio are the uncoalesced-access
// detector defaults: at least 4 full warps of evidence, and at least twice
// the coalesced-ideal transaction count. The ratio is a property of the
// access pattern's geometry, not of any cache size, so detection is stable
// across device specs (the Table 1 device-stability test relies on this).
const (
	DefaultUCMinWarps    = 4
	DefaultUCExcessRatio = 2.0
)

// DefaultConfig returns the paper's experimental settings at object-level
// granularity.
func DefaultConfig() Config {
	return Config{
		Level:    gpu.PatchAPI,
		ObjLevel: objlevel.DefaultConfig(),
		IntraObj: intraobj.DefaultConfig(),
		TopPeaks: 2,
	}
}

// IntraObjectConfig returns DefaultConfig raised to intra-object
// granularity.
func IntraObjectConfig() Config {
	c := DefaultConfig()
	c.Level = gpu.PatchFull
	return c
}

// Profiler is an attached DrGPUM instance. Attach it before the workload
// runs; call Finish afterwards to obtain the report.
type Profiler struct {
	dev       *gpu.Device
	cfg       Config
	collector *trace.Collector
	recorder  *intraobj.Recorder
	checker   *memcheck.Checker
	arrival   *arrivalHook

	// whitelist and samplePeriod are the instrument-filter inputs, built
	// once at Attach so the filter closure never reconstructs them.
	whitelist    map[string]bool
	samplePeriod uint64

	// obs is Config.Obs (possibly nil); the *Pub fields track how much of
	// each cumulative device statistic has already been published, so
	// repeated analyze passes (Snapshot then Finish) add deltas instead of
	// double-counting on a shared recorder.
	obs          *obs.Recorder
	allocOpsPub  uint64
	evictPub     uint64
	checkedPub   uint64
	pipeBatchPub uint64
}

// Attach hooks a profiler up to the device and enables instrumentation at
// the configured level. It must be called before the monitored GPU activity
// starts; APIs invoked earlier are not observed.
//
// When GOMAXPROCS is 2 or more, Attach also arms pipelined ingest
// (gpu.Device.StartPipelinedIngest), at either analysis level: the device
// hands each full batch of access records to a consumer goroutine, which
// charges the cost model from it and runs the hooks while the device keeps
// simulating. At object level the records exist only for the cost model.
// The first full batch starts the consumer. Once it runs, a launch whose
// hooks are all the profiler's (memcheck's and any hook added later are
// not AsyncHooks) completes asynchronously: the consumer charges and
// ingests its last batch, closes its cost record, and then runs the
// profiler's cost attribution and seals in API order, while the device
// returns to the program. Snapshot, window closes, and Annotate on an
// object a queued launch may touch wait for the consumer.
// Reports are byte-identical either way. Finish stops the consumer; a run
// abandoned without Finish must call the device's StopPipelinedIngest
// itself. A panic in hook work on the consumer is raised again on the
// program's goroutine at its next launch or wait.
func Attach(dev *gpu.Device, cfg Config) *Profiler {
	p := &Profiler{dev: dev, cfg: cfg, collector: trace.NewCollector(), obs: cfg.Obs}
	attachSpan := p.obs.Root().Child("attach").Start()
	p.collector.SetObs(p.obs)
	if cfg.Memcheck {
		// Before anything else: the checker reshapes the allocator (red
		// zones, quarantine), which must happen before the first allocation.
		p.checker = memcheck.Attach(dev, memcheck.DefaultConfig())
		p.checker.SetObs(p.obs)
	}
	p.collector.SetHostTraceMode(cfg.ObjectIDMode == gpu.ObjectIDHostTrace)

	if cfg.Level == gpu.PatchFull {
		p.recorder = intraobj.NewRecorder(dev.Spec().MemoryCapacity)
		p.recorder.SetObs(p.obs)
		p.collector.SetSink(p.recorder)
		dev.SetInstrumentFilter(p.instrumentFilter())
	}

	if cfg.CostModel.Disabled {
		dev.DisableCostModel()
	} else {
		dev.SetCostModel(cfg.CostModel.Spec)
	}
	dev.SetObjectIDMode(cfg.ObjectIDMode)
	dev.AddHook(p.collector)
	// After the collector: the arrival hook's OnAPI must see the
	// just-appended APIInfo with final touch sets.
	p.arrival = newArrivalHook(p.collector.Trace(), p.recorder, cfg)
	dev.AddHook(p.arrival)
	// The hit-flag object table must come from the profiler's memory map M,
	// not the raw allocator, so pool tensors (paper §5.4) resolve correctly.
	if rec := p.recorder; rec != nil {
		// The recorder decides a kernel's map mode from the live bytes at
		// its launch, which it may read on the consumer after later APIs.
		h := p.arrival
		h.live = dev.MemStats().InUse
		h.livePub = h.live
		rec.LiveBytes = func() uint64 { return h.live }
		dev.SetLiveRangesProvider(func() ([]gpu.Range, []uint32) {
			h.publishLive(dev.MemStats().InUse)
			return p.collector.LiveTable()
		})
	} else {
		dev.SetLiveRangesProvider(p.collector.LiveTable)
	}
	dev.SetPatchLevel(cfg.Level)
	if pipelines(cfg) {
		dev.StartPipelinedIngest()
	}
	attachSpan.End()
	return p
}

// pipelines reports whether Attach arms pipelined ingest: the run must be
// profiled, at either level, and a second core must be free for the
// consumer goroutine. On one CPU the consumer could only take turns with
// the simulator, so the device charges the cost model inline and delivers
// every batch inline there.
func pipelines(cfg Config) bool {
	return cfg.Level >= gpu.PatchAPI && runtime.GOMAXPROCS(0) >= 2
}

// Observability returns the configured self-observability recorder (nil
// when Config.Obs was not set), for embedders that want live snapshots.
func (p *Profiler) Observability() *obs.Recorder { return p.obs }

// AttachPool integrates a custom memory allocator (the caching Pool, the
// BFC arena, or any other pool.Observable): backing segments the allocator
// reserves are delisted from the memory map so that kernel accesses and
// pattern analysis operate on the allocator's tensors instead (paper
// §5.4). Call it right after creating the allocator, before any
// allocation activity.
func (p *Profiler) AttachPool(pl pool.Observable) {
	pl.Register(func(ev pool.Event) {
		if ev.Kind == pool.EventSegment {
			p.collector.MarkPoolSegment(ev.Ptr)
		}
	})
}

// instrumentFilter combines the kernel whitelist and sampling period. The
// map and period are built once (first call) and reused, so repeated
// attach/filter paths don't reconstruct them.
func (p *Profiler) instrumentFilter() func(kernel string, launch uint64) bool {
	if p.whitelist == nil {
		p.whitelist = make(map[string]bool, len(p.cfg.KernelWhitelist))
		for _, k := range p.cfg.KernelWhitelist {
			p.whitelist[k] = true
		}
		p.samplePeriod = 1
		if p.cfg.SamplingPeriod > 1 {
			p.samplePeriod = uint64(p.cfg.SamplingPeriod)
		}
	}
	return func(kernel string, launch uint64) bool {
		if len(p.whitelist) > 0 && !p.whitelist[kernel] {
			return false
		}
		return launch%p.samplePeriod == 0
	}
}

// ForceHostAccessMaps makes the intra-object recorder behave as if the
// device had no spare memory for access maps, forcing the host-side update
// path of the paper's adaptive scheme (§5.5). It exists for the ablation
// experiments and is a no-op at object-level granularity.
func (p *Profiler) ForceHostAccessMaps() {
	if p.recorder != nil {
		p.recorder.CapacityBytes = 1
	}
}

// Annotate labels the live object based at ptr with an application-facing
// name and element size (0 keeps the default). It reports whether a live
// object starts at ptr.
func (p *Profiler) Annotate(ptr gpu.DevicePtr, label string, elemSize uint32) bool {
	if p.checker != nil {
		p.checker.Annotate(ptr, label)
	}
	return p.collector.Annotate(ptr, label, elemSize)
}

// Collector exposes the underlying collector (used by the custom-pool
// bridge of paper §5.4).
func (p *Profiler) Collector() *trace.Collector { return p.collector }

// Finish stops collection, runs the analyses and returns the report. It
// is idempotent in effect but must not race with device use.
func (p *Profiler) Finish() *Report {
	p.dev.SetPatchLevel(gpu.PatchNone)
	// Join the batch consumer first (no more batches can arrive), then
	// close a streaming run's trailing window.
	p.dev.StopPipelinedIngest()
	p.arrival.finish()
	return p.analyze()
}

// Snapshot runs the full analysis over everything collected so far and
// returns a report, without detaching the profiler — the paper's "online
// pattern detector" view, usable for live dashboards or mid-run
// checkpoints. Call it between GPU APIs (not from inside a kernel body):
// the intra-object maps of an in-flight kernel would otherwise be split
// across two observation windows. Leak and late-deallocation findings in a
// snapshot describe the state *so far* — an object the program frees later
// is still reported unfreed here. The returned Report's Findings, Peaks and
// statistics are point-in-time; its Trace field is a live view that keeps
// growing as collection continues.
func (p *Profiler) Snapshot() *Report {
	p.arrival.done.Wait()
	return p.analyze()
}

// analyze builds a report from the current collection state. The arrival
// hook has already assigned every timestamp and fed every access event to
// the consecutive-access accumulator, so the stages only read its state.
func (p *Profiler) analyze() *Report {
	// an is the analyze span-tree node (nil without observability); each
	// stage opens a child span so per-analyzer self-time shows up in the
	// phase breakdown.
	an := p.obs.Root().Child("analyze")
	anSpan := an.Start()
	meta := runMeta{device: p.dev.Spec().Name, mem: p.dev.MemStats(), cycles: p.dev.Elapsed()}
	if spec, on := p.dev.CostModelSpec(); on {
		meta.cost = &spec
	}
	rep := buildReport(an, p.collector.Trace(), p.arrival.inc, p.arrival.acc, p.recorder, p.cfg, meta)
	if p.checker != nil {
		rep.Memcheck = p.checker.Report()
	}
	anSpan.End()

	rep.Heat = p.arrival.heat
	if p.obs.Enabled() {
		p.publishCounters(rep)
		snap := p.obs.Snapshot()
		rep.Obs = &snap
	}
	return rep
}

// runMeta is the run-level metadata a report carries beside the trace,
// taken from the live device or from a saved profile.
type runMeta struct {
	device string
	mem    gpu.AllocStats
	cycles uint64
	// cost is the cost-model spec findings are priced with; nil when the
	// model is off.
	cost *costmodel.Spec
}

// buildReport runs the analysis stages in order on the calling goroutine,
// each in its span under an (nil without observability), over a trace
// whose timestamps inc assigned and whose access events acc observed, then
// prices, decorates and ranks the findings and assembles the report. rec
// is the intra-object recorder (nil at object level and for saved
// profiles). The live profiler and AnalyzeProfile build every report here.
func buildReport(an *obs.Node, t *trace.Trace, inc *depgraph.Incremental, acc *objlevel.Accumulator,
	rec *intraobj.Recorder, cfg Config, meta runMeta) *Report {
	var g *depgraph.Graph
	staged(an, "depgraph", func() { g = inc.Graph() })
	var pk *peak.Analysis
	staged(an, "peak", func() {
		pk = peak.AnalyzeTimeline(t, cfg.TopPeaks, t.LiveBytesTimelineTo(inc.MaxTopo()))
	})
	var findings []pattern.Finding
	staged(an, "objlevel", func() { findings = objlevel.Detect(t, acc) })
	var modeStats intraobj.ModeStats
	if rec != nil {
		staged(an, "intraobj", func() {
			findings = append(findings, rec.Detect(cfg.IntraObj)...)
			modeStats = rec.Stats()
		})
	}
	if meta.cost != nil {
		staged(an, "costmodel", func() {
			findings = append(findings, detectUncoalesced(t, *meta.cost, cfg.CostModel)...)
		})
	}

	var marginal []uint64
	var advice advisor.Estimate
	staged(an, "marginal", func() { marginal = advisor.MarginalSavings(t, findings) })
	staged(an, "advise", func() { advice = advisor.Advise(t, findings) })

	for i := range findings {
		f := &findings[i]
		f.OnPeak = pk.OnPeak(f.Object)
		f.PeakSavingsBytes = marginal[i]
		f.Suggestion = pattern.Suggest(t, f)
		if meta.cost != nil {
			attachCycles(t, *meta.cost, f)
			f.Severity = severityCycles(f)
		} else {
			f.Severity = severity(f)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Severity != findings[j].Severity {
			return findings[i].Severity > findings[j].Severity
		}
		if findings[i].Object != findings[j].Object {
			return findings[i].Object < findings[j].Object
		}
		return findings[i].Pattern < findings[j].Pattern
	})

	return &Report{
		Device:    meta.device,
		Trace:     t,
		Graph:     g,
		Peaks:     pk,
		Findings:  findings,
		MemStats:  meta.mem,
		Elapsed:   meta.cycles,
		ModeStats: modeStats,
		Recorder:  rec,
		WhatIf:    advice,
		CostModel: meta.cost,
	}
}

// staged wraps one analysis stage in a span named under the analyze node.
func staged(an *obs.Node, name string, fn func()) {
	sp := an.Child(name).Start()
	fn()
	sp.End()
}

// publishCounters feeds the per-pass and cumulative counters after an
// analysis pass. Cumulative device statistics (allocator ops, quarantine
// evictions, memcheck reads) publish as deltas against the previous pass so
// shared recorders are never double-counted; per-pass quantities (peak
// candidates, findings per pattern) count each pass, matching how engine
// aggregation sums passes across runs.
func (p *Profiler) publishCounters(rep *Report) {
	p.obs.Add(obs.CtrPeakCandidates, uint64(rep.Peaks.Candidates))

	perPattern := make(map[pattern.Pattern]uint64)
	for i := range rep.Findings {
		perPattern[rep.Findings[i].Pattern]++
	}
	for _, pat := range pattern.All() {
		p.obs.AddNamed("findings/"+pat.Abbrev(), perPattern[pat])
	}

	ms := rep.MemStats
	allocOps := ms.TotalAllocations + (ms.TotalAllocations - uint64(ms.LiveAllocations))
	p.obs.Add(obs.CtrAllocOps, allocOps-p.allocOpsPub)
	p.allocOpsPub = allocOps
	p.obs.Add(obs.CtrQuarantineEvict, ms.QuarantineEvictions-p.evictPub)
	p.evictPub = ms.QuarantineEvictions
	if rep.Memcheck != nil {
		p.obs.AddNamed("memcheck/reads checked", rep.Memcheck.AccessesChecked-p.checkedPub)
		p.checkedPub = rep.Memcheck.AccessesChecked
	}
	// Full batches only: their count is the same whether or not the run
	// pipelined.
	batches := p.dev.PipelineStats().Batches
	p.obs.AddNamed(obs.NamedPipelineBatches, batches-p.pipeBatchPub)
	p.pipeBatchPub = batches
}

// severity ranks findings for report order: wasted bytes scaled by the
// inefficiency distance, doubled for objects on a reported memory peak
// (the paper prioritizes peak-involved objects, §4), and boosted by the
// advisor's estimate of the peak reduction this fix alone delivers — the
// strongest prioritization signal, since it measures the actual benefit
// rather than a proxy.
func severity(f *pattern.Finding) float64 {
	s := float64(f.WastedBytes)
	if f.Distance > 0 {
		s *= 1 + float64(f.Distance)/64
	}
	if f.Pattern == pattern.NonUniformAccessFrequency {
		// NUAF is a performance pattern, not a wastage pattern; rank by
		// variation magnitude instead of bytes.
		s = f.VariationPct * 1024
	}
	if f.OnPeak {
		s *= 2
	}
	s += 2 * float64(f.PeakSavingsBytes)
	return s
}
