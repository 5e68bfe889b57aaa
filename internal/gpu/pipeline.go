package gpu

// Pipelined ingest: decouple simulation from access-stream consumption.
//
// By default the simulator is a single-threaded loop — the kernel fills the
// device-side access buffer, flushAccesses hands it to the hooks, and only
// then does the kernel produce the next batch. The paper's tool overlaps
// these on real hardware (the Sanitizer callback thread consumes while the
// GPU keeps executing); accessPipeline is that overlap for the simulator: a
// bounded single-producer/single-consumer hand-off where the device swaps a
// filled batch for a recycled empty one and keeps simulating while the
// consumer goroutine runs the hooks. The consumer runs the same hook code a
// synchronous run does, intra-object accumulation included; the pipeline
// only moves it to another goroutine.
//
// Ordering contract (what keeps profiles byte-identical):
//
//   - Batches of one kernel are consumed in flush order — one queue, one
//     consumer, FIFO.
//   - Launch drains the pipeline before folding hit flags and emitting the
//     kernel's OnAPI record, so every OnAccessBatch for a kernel still
//     happens before that kernel's OnAPI, exactly as in synchronous mode.
//     Because every API that emits records drains first, the pipeline is
//     idle whenever application code (or OnAPI hooks) run — hook state may
//     be read and mutated between APIs without synchronization, which is
//     what lets the window manager seal/retire at its usual points.
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

// pipeTask is one hand-off. A nil batch is the drain marker: the consumer
// acknowledges it on the drained channel instead of running hooks.
type pipeTask struct {
	rec   *APIRecord
	batch []MemAccess
}

// PipelineStats describes what the pipelined hand-off did during a run.
type PipelineStats struct {
	// Batches is the number of access batches handed to the consumer.
	Batches uint64
	// DepthHighWater is the maximum queue depth observed at hand-off time
	// (0..pipeDepth); pipeDepth sustained means the consumer is the
	// bottleneck.
	DepthHighWater int
}

// accessPipeline is the bounded SPSC channel between the kernel driver
// (producer, the application goroutine) and the hook consumer goroutine.
// The stats fields are producer-owned: written only at hand-off and read
// only from the producer goroutine (or after Stop joined the consumer).
type accessPipeline struct {
	hooks   []Hook
	tasks   chan pipeTask
	free    chan []MemAccess
	drained chan struct{}
	done    chan struct{}

	pending int // batches sent since the last drain (producer-owned)
	batches uint64
	depthHW int
}

// StartPipelinedIngest moves OnAccessBatch delivery onto a dedicated
// consumer goroutine. Must be called after all hooks are registered (the
// consumer snapshots the hook list) and before any kernel launches.
// Idempotent while a pipeline is active.
func (d *Device) StartPipelinedIngest() {
	if d.pipe != nil {
		return
	}
	p := &accessPipeline{
		hooks:   append([]Hook(nil), d.hooks...),
		tasks:   make(chan pipeTask, pipeDepth),
		free:    make(chan []MemAccess, pipeDepth+2),
		drained: make(chan struct{}),
		done:    make(chan struct{}),
	}
	// pipeDepth+1 spare buffers plus the device's own d.batch: enough that
	// a producer whose send succeeded always finds a free buffer without
	// blocking (queue holds at most pipeDepth, the consumer at most one).
	for i := 0; i < pipeDepth+1; i++ {
		p.free <- make([]MemAccess, 0, accessBatchSize)
	}
	d.pipe = p
	go p.runPipeline()
}

// StopPipelinedIngest drains outstanding batches, terminates the consumer
// goroutine and returns the device to synchronous hook delivery. The final
// hand-off statistics remain available through PipelineStats.
func (d *Device) StopPipelinedIngest() {
	p := d.pipe
	if p == nil {
		return
	}
	p.drain()
	close(p.tasks)
	<-p.done
	d.pipeStats = PipelineStats{Batches: p.batches, DepthHighWater: p.depthHW}
	d.pipe = nil
}

// PipelineStats returns hand-off statistics: live ones while a pipeline is
// active (producer goroutine only), or the totals captured at the last
// StopPipelinedIngest otherwise.
func (d *Device) PipelineStats() PipelineStats {
	if p := d.pipe; p != nil {
		return PipelineStats{Batches: p.batches, DepthHighWater: p.depthHW}
	}
	return d.pipeStats
}

// send hands a filled batch to the consumer and returns a recycled empty
// buffer for the device to keep simulating into.
func (p *accessPipeline) send(rec *APIRecord, batch []MemAccess) []MemAccess {
	if n := len(p.tasks); n > p.depthHW {
		p.depthHW = n
	}
	p.batches++
	p.pending++
	p.tasks <- pipeTask{rec: rec, batch: batch}
	return <-p.free
}

// drain blocks until the consumer has processed every batch handed off so
// far. The ack round-trip is the happens-before edge that lets the
// application goroutine read and mutate hook state between APIs.
func (p *accessPipeline) drain() {
	if p.pending == 0 {
		return
	}
	p.tasks <- pipeTask{}
	<-p.drained
	p.pending = 0
}

// runPipeline is the consumer loop. It executes hook bodies asynchronously,
// so the hookreentry contract applies to everything reachable from here:
// no Device or pool mutators (the analyzer matches this method by name).
func (p *accessPipeline) runPipeline() {
	for t := range p.tasks {
		if t.batch == nil {
			p.drained <- struct{}{}
			continue
		}
		for _, h := range p.hooks {
			h.OnAccessBatch(t.rec, t.batch)
		}
		p.free <- t.batch[:0]
	}
	close(p.done)
}
