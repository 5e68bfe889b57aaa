// Package hookreentry is the fixture for the hookreentry analyzer:
// Sanitizer-analog callbacks must not re-enter simulator mutating APIs.
package hookreentry

import (
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
)

// badHook re-enters the device from both callback kinds — flagged.
type badHook struct {
	dev     *gpu.Device
	scratch gpu.DevicePtr
}

var _ gpu.Hook = (*badHook)(nil)

func (h *badHook) OnAPI(rec *gpu.APIRecord) {
	if ptr, err := h.dev.Malloc(64); err == nil { // want `hook OnAPI calls Device.Malloc`
		h.scratch = ptr
	}
}

func (h *badHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	h.dev.Synchronize() // want `hook OnAccessBatch calls Device.Synchronize`
}

// badSink re-enters from the access-sink callback — flagged.
type badSink struct {
	pool *pool.Pool
}

var _ trace.AccessSink = (*badSink)(nil)

func (s *badSink) ObjectAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess, objs []*trace.Object) {
	if _, err := s.pool.Alloc(16); err != nil { // want `hook ObjectAccessBatch calls pool Pool.Alloc`
		panic(err)
	}
}

// registerBadObserver installs a pool observer that re-enters — flagged.
func registerBadObserver(dev *gpu.Device, p *pool.Pool) {
	p.Register(func(ev pool.Event) {
		dev.CustomAlloc("shadow", 0x1000, ev.Size) // want `hook pool observer calls Device.CustomAlloc`
	})
}

// goodHook only observes — silent.
type goodHook struct {
	dev  *gpu.Device
	apis []string
	seen uint64
}

var _ gpu.Hook = (*goodHook)(nil)

func (h *goodHook) OnAPI(rec *gpu.APIRecord) {
	h.apis = append(h.apis, rec.Name)
	_ = h.dev.Spec() // read-only queries are fine
}

func (h *goodHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	h.seen += uint64(len(batch))
}

// obsHook records self-observability from inside hook callbacks. The obs
// package never touches the device or a pool, so spans and counter updates
// are re-entry-safe and must stay unflagged — this is the contract the
// collector's ingestion taps rely on.
type obsHook struct {
	rec       *obs.Recorder
	apiNode   *obs.Node
	batchNode *obs.Node
}

var _ gpu.Hook = (*obsHook)(nil)

func (h *obsHook) OnAPI(rec *gpu.APIRecord) {
	sp := h.apiNode.Start()
	h.rec.Add(obs.CtrAPIs, 1)
	sp.End()
}

func (h *obsHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	sp := h.batchNode.Start()
	h.rec.Add(obs.CtrAccessBatches, 1)
	h.rec.Add(obs.CtrAccesses, uint64(len(batch)))
	h.rec.AddNamed("batches/"+rec.Name, 1)
	sp.End()
}

// obsSink reports into a recorder from the access-sink callback — silent
// for the same reason.
type obsSink struct{ node *obs.Node }

var _ trace.AccessSink = (*obsSink)(nil)

func (s *obsSink) ObjectAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess, objs []*trace.Object) {
	s.node.Child("batch").Record(0)
}

// launchElsewhere is not a hook; mutating calls are its business — silent.
func launchElsewhere(dev *gpu.Device) error {
	ptr, err := dev.Malloc(128)
	if err != nil {
		return err
	}
	return dev.Free(ptr)
}

// The pipelined-ingest consumer shapes: runPipeline is the named
// consumer-goroutine loop of the intra-run pipeline (the naming
// convention is the analyzer's matching contract). It executes hook work
// asynchronously while the simulator keeps running, so re-entering a
// Device or pool mutator from it is not just a corrupted record — the
// mutator's drain barrier waits on the very goroutine making the call.

// goodPipelineConsumer forwards batches to hooks in order and recycles
// the buffer through the free channel — the hand-off loop's shape, silent.
type goodPipelineConsumer struct {
	hooks []gpu.Hook
	tasks chan []gpu.MemAccess
	free  chan []gpu.MemAccess
}

func (p *goodPipelineConsumer) runPipeline() {
	for b := range p.tasks {
		for _, h := range p.hooks {
			h.OnAccessBatch(nil, b)
		}
		p.free <- b[:0]
	}
}

// badPipelineConsumer allocates its recycled buffers from a simulator
// pool on the consumer goroutine — flagged.
type badPipelineConsumer struct {
	tasks chan []gpu.MemAccess
	pool  *pool.Pool
}

func (p *badPipelineConsumer) runPipeline() {
	for range p.tasks {
		if _, err := p.pool.Alloc(32); err != nil { // want `hook runPipeline calls pool Pool.Alloc`
			return
		}
	}
}

// Work handed to the pipeline consumer through gpu.Completion.After runs
// there like a hook body, so it must not re-enter the simulator either,
// and neither may the AsyncHook method that receives the handle.

// badAsyncHook frees memory from work it queues on the consumer and
// launches from AcceptAsync — flagged.
type badAsyncHook struct {
	dev  *gpu.Device
	q    *gpu.Completion
	temp gpu.DevicePtr
}

var _ gpu.AsyncHook = (*badAsyncHook)(nil)

func (h *badAsyncHook) AcceptAsync(q *gpu.Completion) {
	h.q = q
	h.dev.Synchronize() // want `hook AcceptAsync calls Device.Synchronize`
}

func (h *badAsyncHook) OnAPI(rec *gpu.APIRecord) {
	h.queueFree()
	h.q.After(h.release)
}

// queueFree is no hook method, but the literal it queues runs on the
// consumer.
func (h *badAsyncHook) queueFree() {
	h.q.After(func() {
		_ = h.dev.Free(h.temp) // want `hook Completion.After work calls Device.Free`
	})
}

func (h *badAsyncHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {}

// release is handed to After by method value, so it runs on the consumer.
func (h *badAsyncHook) release() {
	_ = h.dev.Free(h.temp) // want `hook Completion.After work calls Device.Free`
}

// goodAsyncHook only folds what it observed in its queued work — silent.
type goodAsyncHook struct {
	q     *gpu.Completion
	total uint64
}

var _ gpu.AsyncHook = (*goodAsyncHook)(nil)

func (h *goodAsyncHook) AcceptAsync(q *gpu.Completion) { h.q = q }

func (h *goodAsyncHook) OnAPI(rec *gpu.APIRecord) {
	size := rec.Size
	h.q.After(func() { h.total += size })
}

func (h *goodAsyncHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {}
