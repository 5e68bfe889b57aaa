package core_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
	"drgpum/internal/workloads"
)

// tagOracle is a test hook registered after the collector. For every
// global record of a kernel's access batches it resolves the address again
// with its own binary search over the collector's live objects, and checks
// the object tag the device wrote (gpu.MemAccess.Tag): the object's
// trace.ObjectTag when the launch's rows are disjoint, 0 when they
// overlap. It never calls MemoryMap.Lookup, whose locality cache decides
// between overlapping rows; a lookup here would change what the collector
// resolves. With pipelined ingest it runs on the consumer goroutine.
type tagOracle struct {
	t testing.TB
	c *trace.Collector

	// The launch's table, read at the launch's first batch: the memory map
	// cannot change while a kernel runs.
	loaded   bool
	ranges   []gpu.Range
	ids      []trace.ObjectID
	disjoint bool

	mu sync.Mutex // guards the counts and the failure budget
	// tagged counts global records that lie in a live object on a launch
	// with disjoint rows, untagged those on a launch with overlapping rows;
	// both must carry the tag the oracle derives.
	tagged, untagged int
	failures         int
}

func (h *tagOracle) OnAPI(rec *gpu.APIRecord) {
	if rec.Kind == gpu.APIKernel {
		h.loaded = false
	}
}

// load makes ranges and ids, the memory map's live objects in address
// order, the table the oracle checks records against.
func (h *tagOracle) load(ranges []gpu.Range, ids []trace.ObjectID) {
	h.ranges, h.ids = ranges, ids
	h.disjoint = true
	for i := 1; i < len(h.ranges); i++ {
		if uint64(h.ranges[i].Addr-h.ranges[i-1].Addr) < h.ranges[i-1].Size {
			h.disjoint = false
		}
	}
	h.loaded = true
}

func (h *tagOracle) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	if !h.loaded {
		m := h.c.MemoryMap()
		h.load(m.LiveRanges(), m.Live())
	}
	tagged, untagged := 0, 0
	for i := range batch {
		a := &batch[i]
		var want uint32
		if a.Space == gpu.SpaceGlobal {
			// The last live object starting at or below the address.
			lo, hi := 0, len(h.ranges)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if h.ranges[mid].Addr > a.Addr {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo > 0 && h.ranges[lo-1].Contains(a.Addr) {
				if h.disjoint {
					want = trace.ObjectTag(h.ids[lo-1])
					tagged++
				} else {
					untagged++
				}
			}
		}
		if a.Tag != want {
			h.fail("kernel %s (API %d): record %#x (%s, %d bytes) carries tag %d, want %d",
				rec.Name, rec.Index, uint64(a.Addr), a.Space, a.Size, a.Tag, want)
		}
	}
	h.mu.Lock()
	h.tagged += tagged
	h.untagged += untagged
	h.mu.Unlock()
}

// fail reports a disagreement; t.Errorf is safe off the test goroutine.
func (h *tagOracle) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failures++; h.failures <= 5 {
		h.t.Errorf(format, args...)
	}
}

// noPoolHost runs a workload with its caching pool left unattached: the
// pool's segments stay listed in the memory map around its tensors, so
// the hit table's rows overlap.
type noPoolHost struct{ *core.Profiler }

func (noPoolHost) AttachPool(pool.Observable) {}

// tagOracleRun profiles one workload variant at its intra-object kernel
// whitelist with the oracle registered after the collector, and returns
// the oracle.
func tagOracleRun(t *testing.T, w *workloads.Workload, v workloads.Variant, mode string, memcheck, attachPool bool) *tagOracle {
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	cfg.Memcheck = memcheck
	if mode == "streaming" {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	prof := attach(dev, cfg, mode == "pipelined")
	// Registered after Attach: with pipelined ingest the consumer reads the
	// device's hook list, so the oracle sees the handed-off batches too.
	oracle := &tagOracle{t: t, c: prof.Collector()}
	dev.AddHook(oracle)
	var host workloads.Host = prof
	if !attachPool {
		host = noPoolHost{prof}
	}
	if err := w.Run(dev, host, v); err != nil {
		t.Fatal(err)
	}
	prof.Finish()
	return oracle
}

// TestCarriedTagsMatchOracle checks the object tag every access record
// carries from the device against an independent resolution, over every
// bundled program and variant, offline, streaming and pipelined, with
// memcheck off and on. Every global record that lies in a live object must
// arrive tagged: the bundled programs' tables never overlap, so a record
// the collector had to look up means the carried tag went missing. The
// pytorch program then runs with its caching pool unattached, where the
// rows overlap and every record must arrive untagged.
func TestCarriedTagsMatchOracle(t *testing.T) {
	for _, w := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, mode := range []string{"offline", "streaming", "pipelined"} {
				for _, memcheck := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/memcheck=%v", w.Name, v, mode, memcheck), func(t *testing.T) {
						o := tagOracleRun(t, w, v, mode, memcheck, true)
						if o.untagged != 0 {
							t.Errorf("%d records in live objects on launches with overlapping rows", o.untagged)
						}
						if o.tagged == 0 {
							t.Error("no tagged record checked; test is vacuous")
						}
					})
				}
			}
		}
	}
	w, _ := workloads.ByName("pytorch")
	for _, mode := range []string{"offline", "streaming", "pipelined"} {
		t.Run("pytorch/unattached-pool/"+mode, func(t *testing.T) {
			o := tagOracleRun(t, w, workloads.VariantNaive, mode, false, false)
			if o.untagged == 0 {
				t.Error("no record on a launch with overlapping rows; test is vacuous")
			}
		})
	}
}

// asyncTagOracle is the tag oracle as an AsyncHook, so the profiler's
// launches still complete asynchronously with it registered. Its batches
// may arrive after the launch's OnAPI and after later APIs changed the
// memory map, so it takes each launch's table where the device builds
// it: its provider snapshots the memory map, publishes the snapshot to
// the batch side through After, ahead of the launch's first batch, and
// returns the collector's LiveTable. The profiler's own provider also
// hands the intra-object recorder the live bytes for its map-mode
// decision; replacing it leaves the recorder at the bytes live at Attach,
// which these runs, checking tags rather than reports, do not depend on.
// handed counts the partial batches that arrived on another goroutine
// than the launching one: tails of asynchronous launches.
type asyncTagOracle struct {
	tagOracle
	q        *gpu.Completion
	launcher string
	handed   int
}

func (h *asyncTagOracle) AcceptAsync(q *gpu.Completion) { h.q = q }

// OnAPI keeps the loaded table: the next launch's provider call replaces
// it.
func (h *asyncTagOracle) OnAPI(*gpu.APIRecord) {}

func (h *asyncTagOracle) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	h.tagOracle.OnAccessBatch(rec, batch)
	if len(batch) < fullBatch && goroutineID() != h.launcher {
		h.handed++
	}
}

func (h *asyncTagOracle) liveTable() ([]gpu.Range, []uint32) {
	m := h.c.MemoryMap()
	ranges, ids := m.LiveRanges(), m.Live()
	h.q.After(func() { h.load(ranges, ids) })
	return h.c.LiveTable()
}

// TestCarriedTagsMatchOracleAsync is TestCarriedTagsMatchOracle with an
// oracle that accepts asynchronous completion, over every bundled program
// and variant, offline and streaming, pipelined: each record is checked
// against the table its launch was built from, including the tails the
// consumer ingests after the launch returned. Memcheck's hook keeps every
// launch synchronous, so it stays off here.
func TestCarriedTagsMatchOracleAsync(t *testing.T) {
	run := func(t *testing.T, w *workloads.Workload, v workloads.Variant, stream, attachPool bool) *asyncTagOracle {
		dev := gpu.NewDevice(gpu.SpecRTX3090())
		cfg := core.IntraObjectConfig()
		cfg.KernelWhitelist = w.IntraKernels
		if stream {
			cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
		}
		prof := attach(dev, cfg, true)
		oracle := &asyncTagOracle{tagOracle: tagOracle{t: t, c: prof.Collector()}, launcher: goroutineID()}
		dev.AddHook(oracle)
		dev.SetLiveRangesProvider(oracle.liveTable)
		var host workloads.Host = prof
		if !attachPool {
			host = noPoolHost{prof}
		}
		if err := w.Run(dev, host, v); err != nil {
			t.Fatal(err)
		}
		prof.Finish()
		return oracle
	}
	handed := 0
	for _, w := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, stream := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/stream=%v", w.Name, v, stream), func(t *testing.T) {
					o := run(t, w, v, stream, true)
					if o.untagged != 0 {
						t.Errorf("%d records in live objects on launches with overlapping rows", o.untagged)
					}
					if o.tagged == 0 {
						t.Error("no tagged record checked; test is vacuous")
					}
					handed += o.handed
				})
			}
		}
	}
	if handed == 0 {
		t.Error("no launch completed asynchronously; test is vacuous")
	}
	w, _ := workloads.ByName("pytorch")
	t.Run("pytorch/unattached-pool", func(t *testing.T) {
		if o := run(t, w, workloads.VariantNaive, false, false); o.untagged == 0 {
			t.Error("no record on a launch with overlapping rows; test is vacuous")
		}
	})
}

// TestHostTraceIntraObjectEquivalence pins intra-object output across the
// two object-identification schemes: in host-trace mode no access record
// carries an object tag, so the collector resolves every access with
// MemoryMap.Lookup. Every program and variant at PatchFull must give
// byte-identical report JSON either way. The cost model is off, because
// host-trace launches build no hit table and so carry no cost record.
func TestHostTraceIntraObjectEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			t.Run(fmt.Sprintf("%s/%s", w.Name, v), func(t *testing.T) {
				// One call site for both runs: allocation call paths embed
				// source lines.
				var js [2][]byte
				for i, mode := range []gpu.ObjectIDMode{gpu.ObjectIDHitFlags, gpu.ObjectIDHostTrace} {
					dev := gpu.NewDevice(gpu.SpecRTX3090())
					cfg := core.IntraObjectConfig()
					cfg.KernelWhitelist = w.IntraKernels
					cfg.ObjectIDMode = mode
					cfg.CostModel.Disabled = true
					prof := core.Attach(dev, cfg)
					if err := w.Run(dev, prof, v); err != nil {
						t.Fatal(err)
					}
					js[i], _ = reportBytes(t, prof.Finish())
				}
				if !bytes.Equal(js[0], js[1]) {
					t.Errorf("host-trace JSON differs from hit-flag JSON (%d vs %d bytes)", len(js[1]), len(js[0]))
				}
			})
		}
	}
}

// TestZeroByteAccessTouchesNoElement: a kernel stores one element of a
// 1,024-element object and makes one zero-byte read of it. The read
// touches no element, wherever it lands: at the object's base, where the
// last byte offset (offset + size - 1) wraps around below zero, at an
// element boundary, or inside an element. The object stays 1/1024
// accessed and overallocated, with device-side and with host-side access
// maps.
func TestZeroByteAccessTouchesNoElement(t *testing.T) {
	for _, hostMaps := range []bool{false, true} {
		for _, off := range []gpu.DevicePtr{0, 400, 402} {
			t.Run(fmt.Sprintf("hostMaps=%v/offset=%d", hostMaps, off), func(t *testing.T) {
				dev := gpu.NewDevice(gpu.SpecTest())
				prof := core.Attach(dev, core.IntraObjectConfig())
				if hostMaps {
					prof.ForceHostAccessMaps()
				}
				a, err := dev.Malloc(4096)
				if err != nil {
					t.Fatal(err)
				}
				prof.Annotate(a, "a", 4)
				if err := dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
					ctx.StoreU32(a+4000, 1)
					ctx.Read(a+off, nil)
				}); err != nil {
					t.Fatal(err)
				}
				if err := dev.Free(a); err != nil {
					t.Fatal(err)
				}
				rep := prof.Finish()
				if hostMaps && rep.ModeStats.HostKernels == 0 {
					t.Fatal("host maps forced but no kernel ran in host mode")
				}
				pct, ok := rep.Recorder.AccessedPctOf(0)
				if want := 100.0 / 1024; !ok || math.Abs(pct-want) > 1e-9 {
					t.Errorf("accessed %.4f%% (observed %v), want %.4f%%", pct, ok, want)
				}
				if !rep.HasPattern(pattern.Overallocation) {
					t.Errorf("overallocation not reported: %v", rep.PatternSet())
				}
			})
		}
	}
}
