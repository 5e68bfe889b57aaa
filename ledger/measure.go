package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	_ "drgpum/internal/gui" // registers the GUI and HTML exporters
	"drgpum/internal/obs"
	"drgpum/internal/workloads"
)

// profileRun is one profile's outcome. The durations are host time,
// measured by bench timers around the public calls. Hooks, kernels,
// exports and gcCycles are set only on traced profiles.
type profileRun struct {
	rep *core.Report
	sum []byte // SHA-256 of the text export

	wall                        time.Duration // Attach through Export(text)
	attach, run, finish, text   time.Duration
	hooks                       time.Duration
	kernels                     uint64
	exports                     map[string]time.Duration // metric name → time of one further export
	gcCycles                    uint64
	residentBytes, allocedBytes uint64 // set by memoryProfile only
}

// native runs p without the profiler on a fresh device: the denominator
// of every slowdown ratio. Every timed run starts from a collected heap,
// as a run in a fresh process would, so that no run pays for the garbage
// of the one before it.
func native(p *program) (d time.Duration, err error) {
	defer recoverInto(&err)
	runtime.GC()
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	start := time.Now()
	err = p.run(dev, workloads.NopHost())
	return time.Since(start), err
}

// profile runs p once under the profiler on a fresh device: Attach → Run
// → Finish → Export(text) into a SHA-256 digest, the path drgpum
// -workload takes. A traced profile additionally installs an obs recorder
// through Config.Obs, brackets the profiler's hooks with two bench hooks,
// and times the GUI, HTML and saved-profile exports after the wall clock
// stops.
func profile(p *program, traced bool) (pr profileRun, err error) {
	defer recoverInto(&err)
	runtime.GC()
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := p.cfg
	var open *hookOpen
	var closer *hookClose
	var gc0 uint64
	if traced {
		cfg.Obs = obs.New()
		// In the pipelined mode access batches reach the hooks on the
		// consumer goroutine, and the closing hook is not among them, so
		// only OnAPI is bracketed there.
		open = &hookOpen{batches: !cfg.PipelinedIngest}
		closer = &hookClose{open: open}
		dev.AddHook(open)
		gc0 = gcCycles()
	}
	digest := sha256.New()

	t0 := time.Now()
	prof := core.Attach(dev, cfg)
	t1 := time.Now()
	if traced {
		dev.AddHook(closer)
	}
	if err := p.run(dev, prof); err != nil {
		prof.Finish()
		return pr, err
	}
	t2 := time.Now()
	rep := prof.Finish()
	t3 := time.Now()
	if err := rep.Export(digest, core.FormatText); err != nil {
		return pr, err
	}
	t4 := time.Now()

	pr = profileRun{
		rep: rep, sum: digest.Sum(nil),
		wall: t4.Sub(t0), attach: t1.Sub(t0), run: t2.Sub(t1), finish: t3.Sub(t2), text: t4.Sub(t3),
	}
	if !traced {
		return pr, nil
	}
	pr.gcCycles = gcCycles() - gc0
	pr.hooks, pr.kernels = closer.total, closer.kernels
	formats := []core.Format{core.FormatGUI, core.FormatHTML}
	if !cfg.Streaming.Enabled {
		// A streamed trace has retired the access history a saved
		// profile needs, so the profile export refuses it.
		formats = append(formats, core.FormatProfile)
	}
	pr.exports = map[string]time.Duration{}
	for _, f := range formats {
		start := time.Now()
		if err := rep.Export(io.Discard, f); err != nil {
			return pr, err
		}
		pr.exports["export."+f.String()+"_ms"] = time.Since(start)
	}
	return pr, nil
}

// memoryProfile is an untimed profile that measures host memory: the live
// heap the collected state holds after Run (a GC before Run and another
// after it, before Finish), and the bytes allocated from Attach through
// Export.
func memoryProfile(p *program) (pr profileRun, err error) {
	defer recoverInto(&err)
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	var m0, m1, m2, m3 runtime.MemStats
	digest := sha256.New()

	runtime.GC()
	runtime.ReadMemStats(&m0)
	prof := core.Attach(dev, p.cfg)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if err := p.run(dev, prof); err != nil {
		prof.Finish()
		return pr, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	rep := prof.Finish()
	if err := rep.Export(digest, core.FormatText); err != nil {
		return pr, err
	}
	runtime.ReadMemStats(&m3)

	pr = profileRun{rep: rep, sum: digest.Sum(nil), allocedBytes: m3.TotalAlloc - m0.TotalAlloc}
	if m2.HeapAlloc > m1.HeapAlloc {
		pr.residentBytes = m2.HeapAlloc - m1.HeapAlloc
	}
	return pr, nil
}

// check compares a profile against the program's expected fingerprint.
func (p *program) check(pr profileRun) error {
	if d := p.want.mismatch(fingerprintOf(pr.rep, pr.sum)); d != "" {
		return fmt.Errorf("%s: %s", p.name, d)
	}
	return nil
}

func recoverInto(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

// hookOpen is registered before Attach, so the device calls it before any
// of the profiler's hooks; hookClose is registered after Attach, so it
// runs after all of them. The time between the two is the profiler's hook
// time.
type hookOpen struct {
	batches bool
	api     time.Time
	batch   time.Time
}

func (h *hookOpen) OnAPI(*gpu.APIRecord) { h.api = time.Now() }

func (h *hookOpen) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {
	if h.batches {
		h.batch = time.Now()
	}
}

type hookClose struct {
	open    *hookOpen
	total   time.Duration
	kernels uint64
}

func (h *hookClose) OnAPI(rec *gpu.APIRecord) {
	h.total += time.Since(h.open.api)
	if rec.Kind == gpu.APIKernel {
		h.kernels++
	}
}

func (h *hookClose) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {
	h.total += time.Since(h.open.batch)
}

// gcCycles reads the Go runtime's completed GC cycle count without
// stopping the world.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layers reduces one traced profile, paired with its native run, to the
// per-layer metrics. Spans and counters come from the program's own obs
// recorder; everything else is a bench timer or a bench hook.
func layers(pr profileRun, nat time.Duration) map[string]float64 {
	s := pr.rep.Obs
	wall := ms(pr.wall)
	pct := func(path ...string) float64 { return 100 * ms(span(s, path...)) / wall }
	m := map[string]float64{
		"wall.native_ms":  ms(nat),
		"wall.profile_ms": wall,

		"gpu.run_self_ms": ms(pr.run - pr.hooks),
		"gpu.hooks_ms":    ms(pr.hooks),
		"gpu.apis":        counter(s, "apis ingested"),
		"gpu.kernels":     float64(pr.kernels),

		"pipeline.batches":     counter(s, obs.NamedPipelineBatches),
		"pipeline.depth_hw":    counter(s, obs.NamedPipelineDepthHW),
		"pipeline.shard_tasks": counter(s, obs.NamedPipelineShardTasks),

		"trace.ingest_api_ms":    ms(span(s, "ingest", "api")),
		"trace.ingest_batch_pct": pct("ingest", "batch"),
		"trace.access_batches":   counter(s, "access batches"),
		"trace.accesses":         counter(s, "accesses ingested"),

		"intraobj.finalize_pct":  pct("ingest", "finalize"),
		"intraobj.merge_pct":     pct("ingest", "merge"),
		"intraobj.spill_records": counter(s, "host spill records"),
		"intraobj.bitmap_words":  counter(s, "bitmap words touched"),

		"core.attach_ms":        ms(pr.attach),
		"core.finish_ms":        ms(pr.finish),
		"window.hook_pct":       pct("ingest", "window"),
		"window.closed":         counter(s, obs.NamedWindowsClosed),
		"window.apis_retired":   counter(s, obs.NamedWindowAPIsRetired),
		"window.objects_sealed": counter(s, obs.NamedWindowObjectsSealed),
		"export.text_ms":        ms(pr.text),
		"analyze.depgraph_ms":   ms(span(s, "analyze", "depgraph")),
		"analyze.peak_ms":       ms(span(s, "analyze", "peak")),
		"analyze.objlevel_ms":   ms(span(s, "analyze", "objlevel")),
		"analyze.intraobj_pct":  pct("analyze", "intraobj"),
		"analyze.costmodel_ms":  ms(span(s, "analyze", "costmodel")),
		"analyze.marginal_ms":   ms(span(s, "analyze", "marginal")),
		"analyze.advise_ms":     ms(span(s, "analyze", "advise")),
		"peak.candidates":       counter(s, "peak candidates"),
		"findings.total":        float64(len(pr.rep.Findings)),
		"go.gc_cycles":          float64(pr.gcCycles),
	}
	for name, d := range pr.exports {
		m[name] = ms(d)
	}
	return m
}

// span returns the wall time of the span at path, or 0 when that layer
// did not run.
func span(s *obs.Snapshot, path ...string) time.Duration {
	nodes := s.Spans
	var d time.Duration
	for _, name := range path {
		found := false
		for _, n := range nodes {
			if n.Name == name {
				d, nodes, found = time.Duration(n.Nanos), n.Children, true
				break
			}
		}
		if !found {
			return 0
		}
	}
	return d
}

func counter(s *obs.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
