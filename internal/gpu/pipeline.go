package gpu

import (
	"sync"

	"drgpum/internal/costmodel"
)

// Pipelined ingest: decouple simulation from access-stream consumption.
//
// Without a pipeline the simulator is a single-threaded loop — the kernel
// fills the device-side access buffer, flushAccesses hands it to the hooks,
// and only then does the kernel produce the next batch; the cost model runs
// inline on every access. The paper's tool overlaps these on real hardware
// (the Sanitizer callback thread consumes while the GPU keeps executing);
// accessPipeline is that overlap for the simulator: a bounded
// single-producer/single-consumer hand-off where the device swaps a full
// batch for a recycled empty one and keeps simulating while the consumer
// goroutine charges the cost model from the batch and runs the hooks. The
// consumer runs the same hook code a synchronous run does, intra-object
// accumulation included; the pipeline only moves it to another goroutine.
//
// While the pipeline is armed, a launch with the cost model on records
// every access that resolves to a hit-table row, with the row, and the
// consumer charges the tracker from those records. A launch whose records
// are not the hooks' (a hit-flag object-level launch, an uninstrumented
// intra-object one) records them for the model alone, and its batches
// never reach the hooks. A batch never mixes launches: Launch flushes the
// tail of each.
//
// Only full batches are handed off. A launch's partial last batch is
// charged and delivered on the simulating goroutine after the drain, so a
// launch with fewer than accessBatchSize records never touches a channel:
// a hand-off and a drain cost more than a small kernel's ingest overlaps.
// For the same reason the consumer goroutine starts at the first full
// batch, not when the pipeline is armed.
//
// Ordering contract (what keeps profiles byte-identical):
//
//   - Batches of one kernel are consumed in flush order — one queue, one
//     consumer, FIFO, and the partial last batch only after the drain.
//   - Launch drains the pipeline before charging and delivering that last
//     batch, closing the launch's cost, folding hit flags and emitting the
//     kernel's OnAPI record, so every OnAccessBatch for a kernel still
//     happens before that kernel's OnAPI, exactly as in synchronous mode,
//     and the cost tracker sees the launch's accesses in program order.
//     Because every API that emits records drains first, the pipeline is
//     idle whenever application code (or OnAPI hooks) run — hook state,
//     and the tracker that Launch resets, may be read and mutated between
//     APIs without synchronization, which is what lets the window manager
//     seal/retire at its usual points.
//   - The consumer reads the device's hook list, and AddHook drains before
//     appending to it, so a hook registered mid-run sees every batch
//     flushed after it, as it would in synchronous mode.
//
// The consumer must honor the same re-entrancy contract as synchronous
// hooks: runPipeline executes hook bodies, so nothing reached from it may
// call Device or pool mutators (enforced by the hookreentry analyzer, which
// knows runPipeline by name).

// pipeDepth is the bound on batches queued between producer and consumer.
// Small on purpose: one batch in flight plus one queued is enough to hide
// consumption latency, and a tight bound keeps the working set (and the
// recycled-buffer pool) fixed.
const pipeDepth = 2

// maxSpareBatches bounds the process-wide free list of spare batch buffers:
// one pipeline's worth, pipeDepth+1 buffers of accessBatchSize records
// (3 × 96 KiB). A lone run, the CLI's and the ledger's, takes its spares
// from the list and returns them at Stop, so only a process's first
// pipeline allocates them; a run that overlaps another allocates its own,
// and Stop drops the surplus.
const maxSpareBatches = pipeDepth + 1

// spareBatches is the free list a pipeline takes its spares from when its
// first full batch starts the consumer, and StopPipelinedIngest returns
// them to.
var spareBatches struct {
	mu   sync.Mutex
	n    int
	bufs [maxSpareBatches][]MemAccess
}

// takeSpareBatch returns an empty buffer from the free list, or a new one
// when the list is empty.
func takeSpareBatch() []MemAccess {
	spareBatches.mu.Lock()
	if n := spareBatches.n; n > 0 {
		b := spareBatches.bufs[n-1]
		spareBatches.bufs[n-1] = nil
		spareBatches.n = n - 1
		spareBatches.mu.Unlock()
		return b
	}
	spareBatches.mu.Unlock()
	return make([]MemAccess, 0, accessBatchSize)
}

// putSpareBatch returns b to the free list, or drops it when the list is
// full.
func putSpareBatch(b []MemAccess) {
	spareBatches.mu.Lock()
	if n := spareBatches.n; n < maxSpareBatches {
		spareBatches.bufs[n] = b[:0]
		spareBatches.n = n + 1
	}
	spareBatches.mu.Unlock()
}

// pipeTask is one hand-off. A nil batch is the drain marker: the consumer
// acknowledges it on the drained channel instead of running hooks. cost,
// when non-nil, is the tracker the consumer charges from the batch, before
// it runs the hooks when hooks is set.
type pipeTask struct {
	rec   *APIRecord
	batch []MemAccess
	cost  *costmodel.Tracker
	hooks bool
}

// PipelineStats describes the device's full access batches.
type PipelineStats struct {
	// Batches is the number of full access batches the device flushed to
	// the hooks: handed to the consumer goroutine while pipelined ingest
	// is armed, delivered inline otherwise. A launch's partial last batch
	// is not counted, nor is a batch recorded only for the cost model, so
	// the count is the same whether or not the run pipelined.
	Batches uint64
}

// accessPipeline is the bounded SPSC channel between the kernel driver
// (producer, the application goroutine) and the consumer goroutine. Its
// channels are nil until the first full batch starts the consumer.
// pending is producer-owned.
type accessPipeline struct {
	hooks   *[]Hook // the device's hook list
	tasks   chan pipeTask
	free    chan []MemAccess
	drained chan struct{}
	done    chan struct{}

	pending int // batches sent since the last drain
}

// StartPipelinedIngest arms pipelined ingest: from the next launch on, the
// device hands each full access batch to a consumer goroutine, and with
// the cost model on it charges the model from the launch's access records
// there instead of inline. The first full batch starts the consumer, so a
// run without one starts no goroutine. Call it between APIs; hooks may be
// added before or after. Idempotent while armed. StopPipelinedIngest must
// follow.
func (d *Device) StartPipelinedIngest() {
	if d.pipe == nil {
		d.pipe = &accessPipeline{hooks: &d.hooks}
	}
}

// start creates the channels, takes the spare buffers and starts the
// consumer goroutine.
func (p *accessPipeline) start() {
	p.tasks = make(chan pipeTask, pipeDepth)
	p.free = make(chan []MemAccess, pipeDepth+2)
	p.drained = make(chan struct{})
	p.done = make(chan struct{})
	// pipeDepth+1 spare buffers plus the device's own d.batch: enough that
	// a producer whose send succeeded always finds a free buffer without
	// blocking (queue holds at most pipeDepth, the consumer at most one).
	for range pipeDepth + 1 {
		p.free <- takeSpareBatch()
	}
	go p.runPipeline()
}

// StopPipelinedIngest drains outstanding batches, terminates a started
// consumer goroutine, returns the spare buffers to the free list and
// returns the device to inline delivery and inline cost charging.
func (d *Device) StopPipelinedIngest() {
	p := d.pipe
	if p == nil {
		return
	}
	if p.tasks != nil {
		p.drain()
		close(p.tasks)
		<-p.done
		for len(p.free) > 0 {
			putSpareBatch(<-p.free)
		}
	}
	d.pipe = nil
}

// PipelineStats returns the device's full-batch statistics (producer
// goroutine only).
func (d *Device) PipelineStats() PipelineStats { return d.pipeStats }

// send hands a full batch to the consumer, starting it on the first batch,
// and returns a recycled empty buffer for the device to keep simulating
// into.
func (p *accessPipeline) send(rec *APIRecord, batch []MemAccess, hooks bool, cost *costmodel.Tracker) []MemAccess {
	if p.tasks == nil {
		p.start()
	}
	p.pending++
	p.tasks <- pipeTask{rec: rec, batch: batch, cost: cost, hooks: hooks}
	return <-p.free
}

// drain blocks until the consumer has processed every batch handed off so
// far; it returns at once without a pipeline or with nothing handed off.
// The ack round-trip is the happens-before edge that lets the application
// goroutine read and mutate hook state, the hook list and the cost
// tracker between APIs.
func (p *accessPipeline) drain() {
	if p == nil || p.pending == 0 {
		return
	}
	p.tasks <- pipeTask{}
	<-p.drained
	p.pending = 0
}

// runPipeline is the consumer loop: for each batch it charges the cost
// model, then runs the hooks. It executes hook bodies asynchronously, so
// the hookreentry contract applies to everything reachable from here: no
// Device or pool mutators (the analyzer matches this method by name, which
// is why the hook loop stays in it).
func (p *accessPipeline) runPipeline() {
	for t := range p.tasks {
		if t.batch == nil {
			p.drained <- struct{}{}
			continue
		}
		if t.cost != nil {
			chargeBatch(t.cost, t.batch)
		}
		if t.hooks {
			for _, h := range *p.hooks {
				h.OnAccessBatch(t.rec, t.batch)
			}
		}
		p.free <- t.batch[:0]
	}
	close(p.done)
}
