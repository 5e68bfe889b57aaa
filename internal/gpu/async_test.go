package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"drgpum/internal/costmodel"
)

// batchLog records what a run delivers to a hook. Its batch side
// (batches, their records and goroutines, and marks) may be written on
// the consumer and is read by the test after a drain; apis is written by
// OnAPI on the launching goroutine. marks holds, for each kernel, the
// number of batches delivered when work ordered after that kernel's
// OnAPI ran: every batch of the kernel and none of a later one.
type batchLog struct {
	apis    []*APIRecord
	recs    []*APIRecord
	batches [][]MemAccess
	where   []string
	marks   []int
}

func (l *batchLog) OnAccessBatch(rec *APIRecord, batch []MemAccess) {
	l.recs = append(l.recs, rec)
	l.batches = append(l.batches, append([]MemAccess(nil), batch...))
	l.where = append(l.where, goroutineID())
}

// asyncHook is an AsyncHook logging its deliveries; its marks are After
// work queued at each kernel's OnAPI.
type asyncHook struct {
	batchLog
	q *Completion
}

func (h *asyncHook) AcceptAsync(q *Completion) { h.q = q }

func (h *asyncHook) OnAPI(rec *APIRecord) {
	h.apis = append(h.apis, rec)
	if rec.Kind == APIKernel {
		h.q.After(func() { h.marks = append(h.marks, len(h.batches)) })
	}
}

// syncHook logs the same deliveries without accepting asynchronous
// completion, so every launch it observes is synchronous.
type syncHook struct{ batchLog }

func (h *syncHook) OnAPI(rec *APIRecord) {
	h.apis = append(h.apis, rec)
	if rec.Kind == APIKernel {
		h.marks = append(h.marks, len(h.batches))
	}
}

// taggedDevice returns a test device with the cost model on and a
// live-ranges provider that tags every allocator block, so its launches
// may complete asynchronously.
func taggedDevice(level PatchLevel) *Device {
	dev := NewDevice(SpecTest())
	dev.SetCostModel(costmodel.Spec{})
	dev.SetLiveRangesProvider(func() ([]Range, []uint32) {
		live := dev.alloc.Live()
		tags := make([]uint32, len(live))
		for i := range tags {
			tags[i] = uint32(i + 1)
		}
		return live, tags
	})
	dev.SetPatchLevel(level)
	return dev
}

// runSweeps launches kernels of the given record counts, each sweeping
// two buffers, and frees one of the buffers right after the last launch.
func runSweeps(tb testing.TB, dev *Device, records ...int) {
	tb.Helper()
	a, err := dev.Malloc(1 << 12)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := dev.Malloc(1 << 14)
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range records {
		err := dev.LaunchFunc(nil, fmt.Sprintf("sweep%d", i), Dim1(1), Dim1(32), func(ctx *ExecContext) {
			for j := 0; j < n/2; j++ {
				ctx.LoadF32(a + DevicePtr(4*(j%1024)))
				ctx.StoreF32(b+DevicePtr(4*((7*j)%4096)), float32(j))
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := dev.Free(a); err != nil {
		tb.Fatal(err)
	}
}

// TestAsyncCompletionMatchesSync: with only AsyncHooks registered, a
// launch after the consumer has started returns before its tail is
// ingested, and the hooks still receive element-identical batches, the
// same cost records and After work ordered after every batch handed off
// before it, exactly as a synchronous run delivers them. The first launch
// starts the consumer, so it completes asynchronously too; the second
// fills no batch, and the third ends exactly on a batch boundary.
func TestAsyncCompletionMatchesSync(t *testing.T) {
	records := []int{batchedKernelRecords, 100, 2 * accessBatchSize, accessBatchSize + 2}
	run := func(async bool) *batchLog {
		dev := taggedDevice(PatchFull)
		var h *batchLog
		if async {
			a := &asyncHook{}
			dev.AddHook(a)
			h = &a.batchLog
		} else {
			s := &syncHook{}
			dev.AddHook(s)
			h = &s.batchLog
		}
		dev.StartPipelinedIngest()
		runSweeps(t, dev, records...)
		dev.StopPipelinedIngest()
		return h
	}
	self := goroutineID()
	seq, async := run(false), run(true)
	if !reflect.DeepEqual(async.marks, seq.marks) {
		t.Errorf("batches seen by each kernel's After work %v, want %v", async.marks, seq.marks)
	}
	if len(async.batches) != len(seq.batches) {
		t.Fatalf("%d batches delivered asynchronously, want %d", len(async.batches), len(seq.batches))
	}
	for i := range seq.batches {
		if async.recs[i].Index != seq.recs[i].Index || !reflect.DeepEqual(async.batches[i], seq.batches[i]) {
			t.Fatalf("batch %d of API %d differs from the synchronous run's batch of API %d", i, async.recs[i].Index, seq.recs[i].Index)
		}
	}
	tails := 0
	for i, b := range async.batches {
		if len(b) < accessBatchSize {
			tails++
			if async.where[i] == self {
				t.Errorf("batch %d, a tail, ran on the launching goroutine; want it handed off", i)
			}
		}
	}
	if tails != 3 {
		t.Errorf("%d tails delivered, want 3", tails)
	}
	for i := range seq.apis {
		if !reflect.DeepEqual(async.apis[i].Cost, seq.apis[i].Cost) {
			t.Errorf("API %d (%s): cost %+v, want %+v", i, seq.apis[i].Name, async.apis[i].Cost, seq.apis[i].Cost)
		}
	}
}

// TestAsyncNeedsEveryCondition: a launch completes synchronously, its
// tail delivered on the launching goroutine, when any condition for
// asynchronous completion fails: a hook that is not an AsyncHook, rows
// without tags, or an instrumented access outside every row.
func TestAsyncNeedsEveryCondition(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(dev *Device)
		kern  func(ctx *ExecContext, a DevicePtr)
	}{
		{"sync-hook", func(dev *Device) { dev.AddHook(&noopHook{}) }, nil},
		{"untagged-rows", func(dev *Device) { dev.SetLiveRangesProvider(nil) }, nil},
		{"stray-access", func(*Device) {}, func(ctx *ExecContext, a DevicePtr) { ctx.LoadF32(a - 64) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			self := goroutineID()
			dev := taggedDevice(PatchFull)
			h := &asyncHook{}
			dev.AddHook(h)
			c.setup(dev)
			dev.StartPipelinedIngest()
			defer dev.StopPipelinedIngest()
			a, err := dev.Malloc(1 << 12)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				err := dev.LaunchFunc(nil, "k", Dim1(1), Dim1(32), func(ctx *ExecContext) {
					for j := 0; j < accessBatchSize+8; j++ {
						ctx.LoadF32(a + DevicePtr(4*(j%1024)))
					}
					if c.kern != nil {
						c.kern(ctx, a)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				// The tail is the last batch, delivered before Launch
				// returned: nothing is pending.
				if !dev.pipe.idle() || h.where[len(h.where)-1] != self {
					t.Fatalf("launch %d completed asynchronously", i)
				}
			}
		})
	}
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

// panicHook is an AsyncHook whose deferred work, or whose batch path,
// panics with boom once armed.
type panicHook struct {
	asyncHook
	inAfter, armed bool
}

var errBoom = errors.New("boom")

func (h *panicHook) OnAPI(rec *APIRecord) {
	if h.armed && h.inAfter {
		h.q.After(func() { panic(errBoom) })
	}
}

func (h *panicHook) OnAccessBatch(*APIRecord, []MemAccess) {
	if h.armed && !h.inAfter {
		panic(errBoom)
	}
}

// TestConsumerPanicFailsTheRun: a panic in hook work on the consumer, in
// After work or in a batch, does not end the process. The consumer stops,
// and the launching goroutine raises the panic's value at its next
// hand-off or drain, once; stopping the pipeline afterwards neither
// panics nor hangs, and no consumer goroutine is left behind.
func TestConsumerPanicFailsTheRun(t *testing.T) {
	for _, inAfter := range []bool{true, false} {
		t.Run(fmt.Sprintf("inAfter=%v", inAfter), func(t *testing.T) {
			before := consumers()
			dev := taggedDevice(PatchFull)
			h := &panicHook{inAfter: inAfter}
			dev.AddHook(h)
			dev.StartPipelinedIngest()
			run := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = r.(error)
					}
				}()
				runSweeps(t, dev, batchedKernelRecords)
				h.q.Wait()
				h.armed = true
				for i := 0; i < 4; i++ {
					runSweeps(t, dev, 100)
				}
				h.q.Wait()
				return nil
			}
			if err := run(); err != errBoom {
				t.Fatalf("run failed with %v, want %v", err, errBoom)
			}
			dev.StopPipelinedIngest()
			for deadline := time.Now().Add(5 * time.Second); consumers() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d consumer goroutine(s) outlived the panic", consumers()-before)
				}
			}
		})
	}
}

// gateHook is an AsyncHook that holds the consumer in its first batch
// until the test opens the gate.
type gateHook struct {
	asyncHook
	gate    chan struct{}
	entered chan struct{}
	held    bool
}

func (h *gateHook) OnAccessBatch(*APIRecord, []MemAccess) {
	if !h.held {
		h.held = true
		close(h.entered)
		<-h.gate
	}
}

// TestQueuedLaunchKeepsNoFreedBlock: a launch still queued on the consumer
// when the program frees a buffer it touched keeps none of the buffer's
// device memory alive: the collector finalizes the freed block's bytes
// while the launch's tail and cost closing wait behind a held batch.
func TestQueuedLaunchKeepsNoFreedBlock(t *testing.T) {
	dev := taggedDevice(PatchFull)
	h := &gateHook{gate: make(chan struct{}), entered: make(chan struct{})}
	dev.AddHook(h)
	dev.StartPipelinedIngest()
	defer dev.StopPipelinedIngest()
	defer close(h.gate)

	a, err := dev.Malloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Malloc(1 << 12); err != nil { // a is not the last block
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(&dev.alloc.lookup(a).data[0], func(*byte) { close(collected) })
	err = dev.LaunchFunc(nil, "k", Dim1(1), Dim1(32), func(ctx *ExecContext) {
		for j := 0; j < batchedKernelRecords; j++ {
			ctx.LoadF32(a + DevicePtr(4*(j%(1<<14))))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-h.entered
	if dev.pipe.idle() {
		t.Fatal("the launch completed synchronously; test is vacuous")
	}
	if err := dev.Free(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			if len(dev.pipe.tasks) == 0 {
				t.Fatal("nothing queued behind the held batch; test is vacuous")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("the freed block's bytes are still reachable while its launch is queued")
		}
	}
}
