package gpu

import (
	"runtime"
	"strings"
	"testing"
)

// eventHook records the interleaving of hook callbacks and the goroutine
// each batch arrived on. The pipeline's ordering contract makes this safe
// without a lock: every OnAccessBatch for a kernel is delivered before the
// drain barrier that precedes that kernel's OnAPI (on the app goroutine),
// so the appends are totally ordered by the drain's happens-before edge.
type eventHook struct {
	events  []string // "batch:<kernel>" and "api:<name>" in delivery order
	batches [][]MemAccess
	where   []string // goroutineID() at each OnAccessBatch
}

func (h *eventHook) OnAPI(rec *APIRecord) {
	h.events = append(h.events, "api:"+rec.Name)
}

func (h *eventHook) OnAccessBatch(rec *APIRecord, batch []MemAccess) {
	h.events = append(h.events, "batch:"+rec.Name)
	h.batches = append(h.batches, append([]MemAccess(nil), batch...))
	h.where = append(h.where, goroutineID())
}

// goroutineID names the calling goroutine, from the header line of its
// stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// batchedKernelRecords is the record count of the kernels that hand batches
// off: two full batches and a half-full tail.
const batchedKernelRecords = 2*accessBatchSize + accessBatchSize/2

// runPipelineWorkload drives a small instrumented workload: n kernels of
// records access records each (a store and a load per step), all over the
// same buffer, with a Malloc/Free pair around them.
func runPipelineWorkload(tb testing.TB, dev *Device, n, records int) {
	tb.Helper()
	p, err := dev.Malloc(256)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := dev.LaunchFunc(nil, "pipek", Dim1(1), Dim1(4), func(ctx *ExecContext) {
			for j := 0; j < records/2; j++ {
				addr := p + DevicePtr(4*(j%64))
				ctx.StoreF32(addr, float32(j))
				ctx.LoadF32(addr)
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := dev.Free(p); err != nil {
		tb.Fatal(err)
	}
}

// sameDelivery fails unless two hooks saw the same events and
// element-identical batches.
func sameDelivery(t *testing.T, got, want *eventHook) {
	t.Helper()
	if len(got.events) != len(want.events) {
		t.Fatalf("%d events delivered, want %d", len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("event %d: %q, want %q", i, got.events[i], want.events[i])
		}
	}
	if len(got.batches) != len(want.batches) {
		t.Fatalf("%d batches delivered, want %d", len(got.batches), len(want.batches))
	}
	for i := range got.batches {
		if len(got.batches[i]) != len(want.batches[i]) {
			t.Fatalf("batch %d: %d accesses, want %d", i, len(got.batches[i]), len(want.batches[i]))
		}
		for j, a := range got.batches[i] {
			if a != want.batches[i][j] {
				t.Fatalf("batch %d access %d differs: %+v, want %+v", i, j, a, want.batches[i][j])
			}
		}
	}
}

// TestPipelineOrderingAndIdentity pins the hand-off contract: with the
// pipeline attached, every hook still sees each kernel's OnAccessBatch
// strictly before that kernel's OnAPI, and the delivered batches are
// element-identical to a non-pipelined run of the same workload.
func TestPipelineOrderingAndIdentity(t *testing.T) {
	run := func(pipelined bool) *eventHook {
		dev := NewDevice(SpecTest())
		h := &eventHook{}
		dev.AddHook(h)
		dev.SetPatchLevel(PatchFull)
		if pipelined {
			dev.StartPipelinedIngest()
			defer dev.StopPipelinedIngest()
		}
		runPipelineWorkload(t, dev, 5, batchedKernelRecords)
		return h
	}
	seq, piped := run(false), run(true)
	if len(seq.batches) != 15 {
		t.Fatalf("sequential run delivered %d batches, want 3 per kernel", len(seq.batches))
	}
	sameDelivery(t, piped, seq)
}

// TestPipelineStatsAndLifecycle pins which batches are handed off — only
// full ones — and the lifecycle calls: below one batch a launch hands
// nothing off and starts no consumer; at 2.5 batches it starts the
// consumer, hands off exactly 2 and delivers its tail inline on the
// launching goroutine. Stats count full batches whether or not a pipeline
// is active, and double Start/Stop are no-ops.
func TestPipelineStatsAndLifecycle(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &eventHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchFull)
	dev.StartPipelinedIngest()
	dev.StartPipelinedIngest() // idempotent
	self := goroutineID()

	runPipelineWorkload(t, dev, 7, 16)
	if got := dev.PipelineStats().Batches; got != 0 {
		t.Errorf("small kernels: %d full batches, want 0", got)
	}
	for i, g := range h.where {
		if g != self {
			t.Fatalf("small kernels: batch %d handed off, want every batch inline", i)
		}
	}
	if dev.pipe.tasks != nil {
		t.Error("small kernels started the consumer, want it started by the first full batch")
	}

	h.where = nil
	runPipelineWorkload(t, dev, 1, batchedKernelRecords)
	if dev.pipe.tasks == nil {
		t.Error("a 2.5-batch kernel left the consumer unstarted")
	}
	if len(h.where) != 3 || h.where[0] == self || h.where[1] == self || h.where[2] != self {
		t.Errorf("a 2.5-batch kernel's batches ran on %v (launching goroutine %s), want 2 handed off and the tail inline", h.where, self)
	}
	live := dev.PipelineStats()
	if live.Batches != 2 {
		t.Errorf("a 2.5-batch kernel: %d full batches, want 2", live.Batches)
	}
	dev.StopPipelinedIngest()
	dev.StopPipelinedIngest() // idempotent
	if saved := dev.PipelineStats(); saved != live {
		t.Errorf("stats after Stop %+v, live %+v", saved, live)
	}

	// A stopped device keeps working synchronously and keeps counting.
	h.where = nil
	runPipelineWorkload(t, dev, 1, batchedKernelRecords)
	for i, g := range h.where {
		if g != self {
			t.Fatalf("after Stop: batch %d handed off, want every batch inline", i)
		}
	}
	if got := dev.PipelineStats().Batches; got != live.Batches+2 {
		t.Errorf("after Stop: %d full batches, want %d", got, live.Batches+2)
	}
}

// TestLateHookSeesEveryBatch: a hook registered after the pipeline
// started, before the first launch or between two, receives exactly the
// batches and APIs it receives in a synchronous run.
func TestLateHookSeesEveryBatch(t *testing.T) {
	for _, after := range []int{0, 1} {
		run := func(pipelined bool) *eventHook {
			dev := NewDevice(SpecTest())
			dev.AddHook(&noopHook{})
			dev.SetPatchLevel(PatchFull)
			if pipelined {
				dev.StartPipelinedIngest()
				defer dev.StopPipelinedIngest()
			}
			runPipelineWorkload(t, dev, after, batchedKernelRecords)
			late := &eventHook{}
			dev.AddHook(late)
			runPipelineWorkload(t, dev, 2, batchedKernelRecords)
			return late
		}
		seq, piped := run(false), run(true)
		if len(seq.batches) != 6 {
			t.Fatalf("after %d runs: the late hook saw %d batches synchronously, want 6", after, len(seq.batches))
		}
		sameDelivery(t, piped, seq)
	}
}

// TestSpareBatchFreeList: a pipeline takes its spares from the free list
// at its first full batch and Stop returns them, so the next pipeline
// reuses the same buffers; an armed pipeline that never fills a batch
// takes none; a pipeline that overlaps another allocates its own, and the
// list never holds more than maxSpareBatches.
func TestSpareBatchFreeList(t *testing.T) {
	for spareBatches.n > 0 {
		takeSpareBatch()
	}
	spares := func() map[*MemAccess]bool {
		m := map[*MemAccess]bool{}
		for _, b := range spareBatches.bufs[:spareBatches.n] {
			if len(b) != 0 || cap(b) != accessBatchSize {
				t.Errorf("spare of len %d cap %d, want an empty %d-record buffer", len(b), cap(b), accessBatchSize)
			}
			m[&b[:1][0]] = true
		}
		return m
	}
	start := func() *Device {
		dev := NewDevice(SpecTest())
		dev.SetPatchLevel(PatchFull)
		dev.StartPipelinedIngest()
		return dev
	}

	a := start()
	runPipelineWorkload(t, a, 1, batchedKernelRecords)
	a.StopPipelinedIngest()
	first := spares()
	if len(first) != maxSpareBatches {
		t.Fatalf("after one pipeline the list holds %d spares, want %d", len(first), maxSpareBatches)
	}
	idle := start()
	runPipelineWorkload(t, idle, 1, accessBatchSize-2)
	if spareBatches.n != maxSpareBatches {
		t.Errorf("an armed pipeline without a full batch left %d spares on the list, want all %d", spareBatches.n, maxSpareBatches)
	}
	idle.StopPipelinedIngest()
	if spareBatches.n != maxSpareBatches {
		t.Errorf("stopping an unstarted pipeline left %d spares on the list, want %d", spareBatches.n, maxSpareBatches)
	}
	b := start()
	if spareBatches.n != maxSpareBatches {
		t.Errorf("arming a pipeline took %d spares, want none before its first full batch", maxSpareBatches-spareBatches.n)
	}
	own := &b.batch[:1][0]
	runPipelineWorkload(t, b, 1, accessBatchSize)
	if spareBatches.n != 0 {
		t.Errorf("a started pipeline left %d spares on the list, want it to take all %d", spareBatches.n, maxSpareBatches)
	}
	c := start() // overlaps b, and the list is empty: c allocates
	runPipelineWorkload(t, b, 1, batchedKernelRecords)
	runPipelineWorkload(t, c, 1, batchedKernelRecords)

	// b ran on the first pipeline's spares and its own buffer, so those
	// are all it can return.
	b.StopPipelinedIngest()
	second := spares()
	if len(second) != maxSpareBatches {
		t.Fatalf("after the second pipeline the list holds %d spares, want %d", len(second), maxSpareBatches)
	}
	for p := range second {
		if !first[p] && p != own {
			t.Fatal("the second pipeline returned a buffer it did not take from the list")
		}
	}
	c.StopPipelinedIngest()
	if third := spares(); len(third) != maxSpareBatches {
		t.Errorf("after the overlapping pipeline the list holds %d spares, want the bound %d", len(third), maxSpareBatches)
	} else {
		for p := range third {
			if !second[p] {
				t.Error("a full list took a buffer from the overlapping pipeline")
			}
		}
	}
}

// TestPipelineHandoffAllocs is the steady-state allocation guard: once
// the free-list is primed, handing a batch to the consumer and draining
// it back must not allocate — buffers are recycled through the free
// channel and tasks are passed by value. A regression here reintroduces
// per-batch garbage on the hot path the pipeline exists to keep cheap.
func TestPipelineHandoffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	dev := NewDevice(SpecTest())
	dev.AddHook(&noopHook{})
	dev.SetPatchLevel(PatchFull)
	dev.StartPipelinedIngest()
	defer dev.StopPipelinedIngest()

	rec := &APIRecord{Name: "allocs", Kind: APIKernel}
	hand := func() {
		dev.batch = append(dev.batch[:0], MemAccess{Addr: 64, Size: 4})
		dev.batch = dev.pipe.send(pipeTask{rec: rec, batch: dev.batch, hooks: true})
		dev.pipe.drain()
	}
	for i := 0; i < 32; i++ { // prime the free-list and warm the consumer
		hand()
	}
	if avg := testing.AllocsPerRun(200, hand); avg != 0 {
		t.Errorf("pipelined hand-off allocates %.1f objects/op, want 0", avg)
	}
}

// noopHook drops everything; the allocation guard needs a consumer-side
// callback that provably does not allocate itself.
type noopHook struct{}

func (noopHook) OnAPI(*APIRecord)                      {}
func (noopHook) OnAccessBatch(*APIRecord, []MemAccess) {}
