package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// hostMapWorkloads are the programs TestPipelinedDeterminism also runs
// with host-side access maps forced (Profiler.ForceHostAccessMaps). No
// bundled workload outgrows device memory, so without the force no
// pipelined run would take the recorder's host-spill path.
var hostMapWorkloads = map[string]bool{"polybench/bicg": true, "simplemulticopy": true, "minimdock": true}

// attach is core.Attach with the pipelining decision taken through the
// device: pipelined ingest (full access batches handed to a consumer
// goroutine) or synchronous ingestion on one goroutine, whatever Attach
// chose.
func attach(dev *gpu.Device, cfg core.Config, pipelined bool) *core.Profiler {
	prof := core.Attach(dev, cfg)
	if pipelined {
		dev.StartPipelinedIngest()
	} else {
		dev.StopPipelinedIngest()
	}
	return prof
}

// pipelineReport runs one workload variant from scratch, either through
// the plain sequential pipeline (the identity baseline: synchronous
// ingestion on one goroutine) or through the pipelined one (double-
// buffered access hand-off to a consumer goroutine). hostMaps forces the
// intra-object recorder's host-side map updates.
func pipelineReport(tb testing.TB, name string, v workloads.Variant, pipelined, stream, hostMaps bool) *core.Report {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %s", name)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	if stream {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	prof := attach(dev, cfg, pipelined)
	if hostMaps {
		prof.ForceHostAccessMaps()
	}
	if err := w.Run(dev, prof, v); err != nil {
		tb.Fatal(err)
	}
	return prof.Finish()
}

// exportBytes serializes a report through one registered exporter.
func exportBytes(tb testing.TB, rep *core.Report, f core.Format) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := rep.Export(&buf, f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelinedDeterminism pins the pipelined identity contract across the
// whole workload suite: for every workload, both variants, offline and
// streaming, a run whose accesses were handed to a consumer goroutine must
// serialize byte-identically — report JSON, verbose render, GUI export,
// and (offline) the saved profile — to the strictly sequential pipeline.
// The hostMapWorkloads run a second time with host-side access maps
// forced, so the consumer also replays host-mode spills. The contract is
// the same one TestStreamingDeterminism pins for windows: concurrency is
// an execution detail, never an output.
func TestPipelinedDeterminism(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, stream := range []bool{false, true} {
				for _, hostMaps := range []bool{false, true} {
					if hostMaps && !hostMapWorkloads[name] {
						continue
					}
					mode := "offline"
					if stream {
						mode = "streaming"
					}
					if hostMaps {
						mode += "/host-maps"
					}
					t.Run(fmt.Sprintf("%s/%s/%s", name, v, mode), func(t *testing.T) {
						checkPipelinedIdentity(t, name, v, stream, hostMaps)
					})
				}
			}
		}
	}
}

// checkPipelinedIdentity is one TestPipelinedDeterminism case.
func checkPipelinedIdentity(t *testing.T, name string, v workloads.Variant, stream, hostMaps bool) {
	// One call site for both runs: allocation call paths embed source
	// lines, so distinct call sites would differ trivially.
	var reps [2]*core.Report
	for i, pipelined := range []bool{false, true} {
		reps[i] = pipelineReport(t, name, v, pipelined, stream, hostMaps)
		if hostMaps && reps[i].ModeStats.HostKernels == 0 {
			t.Fatalf("pipelined=%v: host maps forced but no kernel ran in host mode; test is vacuous", pipelined)
		}
	}
	seq, piped := reps[0], reps[1]
	seqJS, seqTxt := reportBytes(t, seq)
	pipJS, pipTxt := reportBytes(t, piped)
	if !bytes.Equal(seqJS, pipJS) {
		t.Errorf("pipelined JSON differs from sequential (%d vs %d bytes)", len(pipJS), len(seqJS))
	}
	if !bytes.Equal(seqTxt, pipTxt) {
		t.Errorf("pipelined render differs from sequential (%d vs %d bytes)", len(pipTxt), len(seqTxt))
	}
	if !bytes.Equal(exportBytes(t, seq, core.FormatGUI), exportBytes(t, piped, core.FormatGUI)) {
		t.Error("pipelined GUI export differs from sequential")
	}
	if !stream {
		if !bytes.Equal(exportBytes(t, seq, core.FormatProfile), exportBytes(t, piped, core.FormatProfile)) {
			t.Error("pipelined saved profile differs from sequential")
		}
	}
}

// TestPipelinedMemcheckDeterminism pins the identity contract for the
// memcheck checker specifically: its OnAccessBatch shadow updates now run
// on the pipeline's consumer goroutine, so the planted-bug workload —
// whose report includes the memcheck findings section — must serialize
// byte-identically whether the checker was fed synchronously or through
// the hand-off.
func TestPipelinedMemcheckDeterminism(t *testing.T) {
	w := workloads.KnownBad()
	run := func(pipelined bool) *core.Report {
		dev := gpu.NewDevice(gpu.SpecRTX3090())
		cfg := core.IntraObjectConfig()
		cfg.KernelWhitelist = w.IntraKernels
		cfg.Memcheck = true
		prof := attach(dev, cfg, pipelined)
		if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
			t.Fatal(err)
		}
		return prof.Finish()
	}
	// One call site for both runs (call paths embed source lines).
	var reps [2]*core.Report
	for i, pipelined := range []bool{false, true} {
		reps[i] = run(pipelined)
	}
	seq, piped := reps[0], reps[1]
	if seq.Memcheck == nil || len(seq.Memcheck.Issues) == 0 {
		t.Fatal("sequential knownbad run produced no memcheck findings; test is vacuous")
	}
	seqJS, seqTxt := reportBytes(t, seq)
	pipJS, pipTxt := reportBytes(t, piped)
	if !bytes.Equal(seqJS, pipJS) {
		t.Errorf("pipelined memcheck JSON differs from sequential (%d vs %d bytes)", len(pipJS), len(seqJS))
	}
	if !bytes.Equal(seqTxt, pipTxt) {
		t.Errorf("pipelined memcheck render differs from sequential (%d vs %d bytes)", len(pipTxt), len(seqTxt))
	}
}

// TestPipelinedSnapshotThenFinish pins the pipelined form of the snapshot
// contract: mid-run Snapshots — which flush the recorder while the
// pipeline stays attached — must leave the Finish report byte-identical
// to an uninterrupted pipelined run, offline and streaming.
func TestPipelinedSnapshotThenFinish(t *testing.T) {
	for _, stream := range []bool{false, true} {
		mode := "offline"
		if stream {
			mode = "streaming"
		}
		t.Run(mode, func(t *testing.T) {
			run := func(snapshots bool) *core.Report {
				dev := gpu.NewDevice(gpu.SpecRTX3090())
				prof := attach(dev, trainingConfig(stream), true)
				var onEpoch func(int)
				if snapshots {
					onEpoch = func(e int) {
						if e%10 == 3 {
							if rep := prof.Snapshot(); len(rep.Findings) == 0 {
								t.Error("mid-run snapshot found nothing")
							}
						}
					}
				}
				runTrainingLoop(t, dev, prof, trainingEpochs, onEpoch)
				return prof.Finish()
			}
			// One call site for both runs (call paths embed source lines).
			var reps [2]*core.Report
			for i, snapshots := range []bool{false, true} {
				reps[i] = run(snapshots)
			}
			plainJS, plainTxt := reportBytes(t, reps[0])
			snapJS, snapTxt := reportBytes(t, reps[1])
			if !bytes.Equal(plainJS, snapJS) {
				t.Errorf("interleaved snapshots changed the pipelined Finish JSON (%d vs %d bytes)", len(snapJS), len(plainJS))
			}
			if !bytes.Equal(plainTxt, snapTxt) {
				t.Errorf("interleaved snapshots changed the pipelined Finish render (%d vs %d bytes)", len(snapTxt), len(plainTxt))
			}
		})
	}
}

// tailHook is an AsyncHook that counts the partial batches delivered on
// another goroutine than the launching one: the tails of launches that
// completed asynchronously.
type tailHook struct {
	launcher string
	handed   int
}

func (*tailHook) AcceptAsync(*gpu.Completion) {}
func (*tailHook) OnAPI(*gpu.APIRecord)        {}

func (h *tailHook) OnAccessBatch(_ *gpu.APIRecord, batch []gpu.MemAccess) {
	if len(batch) < fullBatch && goroutineID() != h.launcher {
		h.handed++
	}
}

// TestAsyncCompletionDeterminism pins asynchronous completion on the
// training loop, where each epoch frees its activation right after the
// launch that wrote it, so the launch's cost record closes after the free:
// with only AsyncHooks registered, a pipelined run whose launches return
// before their tails and cost records are processed serializes
// byte-identically to a synchronous one, offline and streaming, with and
// without mid-run snapshots.
func TestAsyncCompletionDeterminism(t *testing.T) {
	for _, stream := range []bool{false, true} {
		for _, snapshots := range []bool{false, true} {
			t.Run(fmt.Sprintf("stream=%v/snapshots=%v", stream, snapshots), func(t *testing.T) {
				var reps [2]*core.Report
				var tails tailHook
				for i, async := range []bool{false, true} {
					dev := gpu.NewDevice(gpu.SpecRTX3090())
					prof := attach(dev, trainingConfig(stream), async)
					tails.launcher = goroutineID()
					dev.AddHook(&tails)
					var onEpoch func(int)
					if snapshots {
						onEpoch = func(e int) {
							if e%10 == 3 {
								prof.Snapshot()
							}
						}
					}
					runTrainingLoop(t, dev, prof, trainingEpochs, onEpoch)
					reps[i] = prof.Finish()
				}
				if tails.handed == 0 {
					t.Fatal("no launch completed asynchronously; test is vacuous")
				}
				syncJS, syncTxt := reportBytes(t, reps[0])
				asyncJS, asyncTxt := reportBytes(t, reps[1])
				if !bytes.Equal(syncJS, asyncJS) {
					t.Errorf("asynchronous JSON differs from synchronous (%d vs %d bytes)", len(asyncJS), len(syncJS))
				}
				if !bytes.Equal(syncTxt, asyncTxt) {
					t.Errorf("asynchronous render differs from synchronous (%d vs %d bytes)", len(asyncTxt), len(syncTxt))
				}
				if stream && !reflect.DeepEqual(reps[0].Heat, reps[1].Heat) {
					t.Error("asynchronous heat map differs from synchronous")
				}
			})
		}
	}
}

// fullBatch is the device's access-buffer capacity in records.
const fullBatch = 4096

// deliveryHook records, for each full access batch, whether it arrived on
// the goroutine that launched the kernel.
type deliveryHook struct {
	launcher string
	full     int // full batches delivered
	handed   int // of those, delivered on another goroutine
}

func (h *deliveryHook) OnAPI(*gpu.APIRecord) {}

func (h *deliveryHook) OnAccessBatch(_ *gpu.APIRecord, batch []gpu.MemAccess) {
	if len(batch) == fullBatch {
		h.full++
		if goroutineID() != h.launcher {
			h.handed++
		}
	}
}

// goroutineID names the calling goroutine, from the header line of its
// stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// consumers counts the pipeline consumer goroutines alive in the process.
func consumers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "gpu.(*accessPipeline).runPipeline(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestAttachPipelinesOnFreeCore pins Attach's decision: at GOMAXPROCS 2
// every profiled run hands its full batches to a consumer goroutine,
// which charges the cost model and runs the hooks there: an intra-object
// run and a host-trace object-level run hand their hooks' batches off,
// and a hit-flag object-level run, whose records exist only for the cost
// model, starts the consumer but delivers no batch to the hooks. A run
// with no full batch starts no consumer, and at GOMAXPROCS 1 nothing is
// handed off.
func TestAttachPipelinesOnFreeCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	hostTrace := core.DefaultConfig()
	hostTrace.ObjectIDMode = gpu.ObjectIDHostTrace
	const big, small = fullBatch + fullBatch/4, fullBatch / 4
	for _, c := range []struct {
		name     string
		procs    int
		cfg      core.Config
		accesses int
		full     int  // full batches the hooks receive
		handed   bool // and are handed off
		consumer bool // a consumer goroutine runs after the launch
	}{
		{"intra/procs=2", 2, core.IntraObjectConfig(), big, 1, true, true},
		{"intra/procs=1", 1, core.IntraObjectConfig(), big, 1, false, false},
		{"host-trace/procs=2", 2, hostTrace, big, 1, true, true},
		{"host-trace/procs=1", 1, hostTrace, big, 1, false, false},
		{"object/procs=2", 2, core.DefaultConfig(), big, 0, false, true},
		{"object/procs=1", 1, core.DefaultConfig(), big, 0, false, false},
		{"intra/procs=2/no-full-batch", 2, core.IntraObjectConfig(), small, 0, false, false},
		{"object/procs=2/no-full-batch", 2, core.DefaultConfig(), small, 0, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			before := consumers()
			dev := gpu.NewDevice(gpu.SpecRTX3090())
			prof := core.Attach(dev, c.cfg)
			h := &deliveryHook{launcher: goroutineID()}
			dev.AddHook(h)
			ptr, err := dev.Malloc(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			err = dev.LaunchFunc(nil, "sweep", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
				for i := 0; i < c.accesses; i++ {
					ctx.LoadF32(ptr + gpu.DevicePtr(4*(i%(1<<14))))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			started := consumers() > before
			rep := prof.Finish()
			if h.full != c.full {
				t.Fatalf("%d full batches delivered to the hooks, want %d", h.full, c.full)
			}
			if got := h.handed > 0; got != c.handed {
				t.Errorf("full batch handed off = %v, want %v", got, c.handed)
			}
			if started != c.consumer {
				t.Errorf("consumer goroutine started = %v, want %v", started, c.consumer)
			}
			// Finish joins the consumer, which may still be returning.
			for deadline := time.Now().Add(5 * time.Second); consumers() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d consumer goroutine(s) outlived Finish", consumers()-before)
				}
			}
			// A hit-flag run charges the model with every access, wherever
			// it charged them.
			if c.cfg.ObjectIDMode == gpu.ObjectIDHitFlags {
				var charged uint64
				for _, o := range rep.Trace.Objects {
					charged += o.Cost.Accesses
				}
				if charged != uint64(c.accesses) {
					t.Errorf("the cost model saw %d accesses, want %d", charged, c.accesses)
				}
			}
		})
	}
}
