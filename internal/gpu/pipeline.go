package gpu

import (
	"sync"

	"drgpum/internal/costmodel"
)

// Pipelined ingest: decouple simulation from access-stream consumption.
//
// Without a pipeline the simulator is a single-threaded loop — the kernel
// fills the device-side access buffer, ExecContext.flush hands it to the hooks,
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
// A launch completes in one of two ways:
//
//   - Synchronously: Launch drains the pipeline, then charges and
//     delivers its partial last batch (its tail) on the simulating
//     goroutine and closes its cost record there. A launch with fewer
//     than accessBatchSize records never touches a channel, and the
//     consumer goroutine starts at the first full batch, not when the
//     pipeline is armed: a hand-off and a drain cost more than a small
//     kernel's ingest overlaps.
//   - Asynchronously: Launch hands the tail and the closing of the cost
//     record to the consumer and returns without draining, as a real
//     launch returns before its kernel finishes. It does so only when
//     the consumer is already running, the hit-table rows are disjoint
//     and carry the provider's tags, every access recorded for the hooks
//     resolved to a row (so each record names its object), and every
//     hook is an AsyncHook. Hooks that accept it order what their OnAPI
//     shares with the consumer through the Completion handle.
//
// Ordering contract (what keeps profiles byte-identical):
//
//   - Tasks run in send order — one queue, one consumer, FIFO — so the
//     batches of a launch, its tail and its cost closing run in program
//     order, and a launch's first record is charged after the tracker's
//     reset for it. Launch resets the tracker inline when nothing is
//     pending, and otherwise hands the reset to the consumer with the
//     launch's first task, so the simulating goroutine never resets it
//     while the consumer charges an earlier launch.
//   - A synchronous launch drains before its tail, its cost closing and
//     its OnAPI, so every OnAccessBatch for the kernel happens before that
//     kernel's OnAPI and nothing is pending when application code runs
//     after it. Without an AsyncHook-only hook list every launch is
//     synchronous, which is the contract every other hook relies on.
//   - After an asynchronous launch, work queued through Completion.After
//     runs after everything handed off before it and before anything
//     handed off later, on the consumer; with nothing pending it runs at
//     once on the calling goroutine, so the one-CPU and the synchronous
//     paths run the same code in the same order. Completion.Wait, AddHook
//     and StopPipelinedIngest drain, so the simulating goroutine reads
//     consumer-written state only after a drain.
//   - The consumer reads the device's hook list, and AddHook drains before
//     appending to it, so a hook registered mid-run sees every batch
//     flushed after it, as it would in synchronous mode.
//
// The consumer must honor the same re-entrancy contract as synchronous
// hooks: runPipeline executes hook bodies and After work, so nothing
// reached from it may call Device or pool mutators (enforced by the
// hookreentry analyzer, which knows runPipeline by name and checks the
// functions handed to Completion.After). A panic on the consumer
// does not end the process: the consumer recovers it, stops taking work,
// and the next hand-off or drain raises it again on the simulating
// goroutine.

// pipeDepth is the number of batch buffers in flight between producer
// and consumer. Small on purpose: one batch in flight plus one queued is
// enough to hide consumption latency, and a tight bound keeps the working
// set (and the recycled-buffer pool) fixed. A launch's tail handed off by
// asynchronous completion takes a buffer like a full batch.
const pipeDepth = 2

// pipeTasks is the task queue's capacity. Tasks and batch buffers are
// different resources: a task that carries no buffer (a batch-less cost
// closing, After work, the drain marker) must not wait behind the buffer
// bound. A launch whose tail is in flight takes about four tasks (its
// tail, the After work of its OnAPI and of the allocation calls around
// it), so the queue holds that many for every buffer in flight, and the
// producer blocks on a free buffer, which bounds memory, before it blocks
// on a task slot.
const pipeTasks = 4 * (pipeDepth + 2)

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

// pipeTask is one hand-off. The consumer runs fn, work queued by
// Completion.After, when it is non-nil; acknowledges a drain marker on
// the drained channel; or else resets cost to rows entries when reset is
// set, charges cost (when non-nil) from batch (when non-nil) and runs the
// hooks over it when hooks is set, and finally, when table is non-nil,
// closes the launch's cost record over the table's rows into rec.Cost.
type pipeTask struct {
	rec   *APIRecord
	batch []MemAccess
	cost  *costmodel.Tracker
	hooks bool
	reset bool
	drain bool
	rows  int
	table []hitEntry
	fn    func()
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
// channels are nil until the first full batch starts the consumer. fault
// is the consumer's recovered panic, written before done closes. The
// fields below it are producer-owned.
type accessPipeline struct {
	hooks   *[]Hook // the device's hook list
	tasks   chan pipeTask
	free    chan []MemAccess
	drained chan struct{}
	done    chan struct{}
	fault   any

	// pending counts the tasks sent since the last drain; raised is set
	// once the consumer's panic has been raised.
	pending int
	raised  bool
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
	p.tasks = make(chan pipeTask, pipeTasks)
	p.free = make(chan []MemAccess, pipeDepth+2)
	p.drained = make(chan struct{})
	p.done = make(chan struct{})
	// pipeDepth+1 spare buffers plus the device's own d.batch: the queue
	// and the consumer together hold at most pipeDepth+1 buffers once the
	// producer has taken a free one, so the free channel never fills.
	for range pipeDepth + 1 {
		p.free <- takeSpareBatch()
	}
	go p.runPipeline()
}

// StopPipelinedIngest drains outstanding work, terminates a started
// consumer goroutine, returns the spare buffers to the free list and
// returns the device to inline delivery and inline cost charging. A panic
// the consumer recovered and the device has not raised yet is raised here,
// after the consumer has exited.
func (d *Device) StopPipelinedIngest() {
	p := d.pipe
	if p == nil {
		return
	}
	d.pipe = nil
	if p.tasks == nil {
		return
	}
	defer p.stop()
	p.drain()
}

// stop closes the task queue, waits for the consumer to exit and returns
// the buffers it recycled to the free list.
func (p *accessPipeline) stop() {
	close(p.tasks)
	<-p.done
	for len(p.free) > 0 {
		putSpareBatch(<-p.free)
	}
}

// PipelineStats returns the device's full-batch statistics (producer
// goroutine only).
func (d *Device) PipelineStats() PipelineStats { return d.pipeStats }

// started reports whether the consumer goroutine is running.
func (p *accessPipeline) started() bool { return p != nil && p.tasks != nil }

// idle reports whether nothing has been handed off since the last drain,
// so work run now on the producer is ordered after all of it.
func (p *accessPipeline) idle() bool { return p == nil || p.pending == 0 }

// send hands a task carrying a full batch or a tail to the consumer,
// starting it on the first full batch, and returns a recycled empty
// buffer for the device to keep simulating into.
func (p *accessPipeline) send(t pipeTask) []MemAccess {
	if p.tasks == nil {
		p.start()
	}
	p.put(t)
	select {
	case b := <-p.free:
		return b
	case <-p.done:
		p.raise()
		return t.batch[:0]
	}
}

// put sends t. If the consumer has stopped on a panic, put raises it
// instead, once, and drops work after that.
func (p *accessPipeline) put(t pipeTask) {
	p.pending++
	select {
	case <-p.done:
		p.raise()
		return
	default:
	}
	select {
	case p.tasks <- t:
	case <-p.done:
		p.raise()
	}
}

// drain blocks until the consumer has processed every task handed off so
// far; it returns at once without a pipeline or with nothing handed off.
// The ack round-trip is the happens-before edge that lets the application
// goroutine read and mutate hook state, the hook list and the cost
// tracker after it.
func (p *accessPipeline) drain() {
	if p == nil || p.pending == 0 {
		return
	}
	p.put(pipeTask{drain: true})
	select {
	case <-p.drained:
	case <-p.done:
		p.raise()
	}
	p.pending = 0
}

// raise re-raises the consumer's panic on the producer the first time it
// is seen; later calls return, and the device stops delivering.
func (p *accessPipeline) raise() {
	if !p.raised {
		p.raised = true
		panic(p.fault)
	}
}

// runPipeline is the consumer loop: for each task it runs the queued
// After work, then charges the cost model and runs the hooks over the
// batch, then closes a launch's cost record. It executes hook bodies and
// After work asynchronously, so the hookreentry contract applies to
// everything reachable from here: no Device or pool mutators (the
// analyzer matches this method by name, which is why the hook loop stays
// in it). A panic ends the loop: the deferred recover keeps it in fault
// for the producer, and done closes after it.
func (p *accessPipeline) runPipeline() {
	defer close(p.done)
	defer func() { p.fault = recover() }()
	for t := range p.tasks {
		if t.fn != nil {
			t.fn()
			continue
		}
		if t.drain {
			p.drained <- struct{}{}
			continue
		}
		if t.reset {
			t.cost.Reset(t.rows)
		}
		if t.batch != nil {
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
		if t.table != nil {
			t.rec.Cost = closeCost(t.cost, t.table)
		}
	}
}

// AsyncHook is a Hook that accepts asynchronous completion of profiled
// launches: a launch may return, and its OnAPI run, before the consumer
// has delivered its last batch to the hook or closed its cost record
// (APIRecord.Cost). AddHook hands the hook the device's Completion
// handle. By accepting it the hook promises that its OnAPI reads neither
// rec.Cost nor state its OnAccessBatch writes, and that whatever its
// access-batch path reads from OnAPI-side state reaches it through
// Completion.After. A device completes launches asynchronously only
// while every hook it has is an AsyncHook.
type AsyncHook interface {
	Hook
	// AcceptAsync is called once, when the hook is added, with the
	// device's completion handle.
	AcceptAsync(q *Completion)
}

// Completion is the handle through which an AsyncHook orders its work
// with the launches the device completes on the pipeline consumer. A nil
// handle runs all work inline.
type Completion struct{ d *Device }

// After runs fn once every batch, launch tail and cost closing handed off
// so far has been processed: at once on the calling goroutine when nothing
// is pending (no pipeline, one not started, one drained since its last
// hand-off), otherwise on the consumer, before anything handed off later.
// fn runs under the hook re-entrancy rules: it must not call Device or
// pool mutators.
func (q *Completion) After(fn func()) {
	if q == nil || q.d.pipe.idle() {
		fn()
		return
	}
	q.d.pipe.put(pipeTask{fn: fn})
}

// Wait blocks until the consumer has run everything handed off so far,
// After work included; afterwards the caller may read what that work
// wrote.
func (q *Completion) Wait() {
	if q != nil {
		q.d.pipe.drain()
	}
}
