package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/costmodel"
	"drgpum/internal/gpu"
)

// launchCapture is one kernel launch as the device's cost model saw it:
// the hit table (the profiler's live ranges at launch), the launch's
// global accesses in program order, and the cost record the device
// attached to the launch.
type launchCapture struct {
	table    []gpu.Range
	accesses []capturedAccess
	want     *costmodel.KernelCost
}

type capturedAccess struct {
	addr uint64
	size uint32
}

// captureHook is registered after Attach, so it sees every access batch
// and API after the collector has processed it.
type captureHook struct {
	prof     *core.Profiler
	cur      []capturedAccess
	launches []launchCapture
}

func (c *captureHook) OnAccessBatch(_ *gpu.APIRecord, batch []gpu.MemAccess) {
	for _, a := range batch {
		if a.Space == gpu.SpaceGlobal {
			c.cur = append(c.cur, capturedAccess{addr: uint64(a.Addr), size: a.Size})
		}
	}
}

// OnAPI closes a launch. A kernel does not change the memory map, so the
// live ranges now are the table the device built at launch.
func (c *captureHook) OnAPI(rec *gpu.APIRecord) {
	if rec.Kind != gpu.APIKernel {
		return
	}
	c.launches = append(c.launches, launchCapture{table: c.prof.Collector().LiveRanges(), accesses: c.cur, want: rec.Cost})
	c.cur = nil
}

// capture makes one untimed run of p at PatchFull with no kernel
// whitelist, so every access of every launch reaches the hooks. The cost
// model's accounting does not depend on the patch level, so the capture
// serves the object-level workload too.
func capture(p *program) (spec costmodel.Spec, launches []launchCapture, err error) {
	defer recoverInto(&err)
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	prof := core.Attach(dev, core.IntraObjectConfig())
	c := &captureHook{prof: prof}
	dev.AddHook(c)
	err = p.run(dev, prof)
	prof.Finish()
	spec, _ = dev.CostModelSpec()
	return spec, c.launches, err
}

// replay runs captured launches through the public cost-model API, with
// one persistent L2 for the device as the simulator keeps, and returns
// each launch's cost record.
func replay(spec costmodel.Spec, launches []launchCapture) []*costmodel.KernelCost {
	l2 := costmodel.NewCache(spec.L2Sets, spec.L2Ways)
	out := make([]*costmodel.KernelCost, len(launches))
	for i := range launches {
		l := &launches[i]
		if len(l.table) == 0 {
			continue // the device builds no tracker for an empty table
		}
		tr := costmodel.NewTracker(spec, l2, len(l.table))
		for _, a := range l.accesses {
			if e := entryOf(l.table, a.addr); e >= 0 {
				tr.Access(e, a.addr, a.size)
			}
		}
		out[i] = tr.Finish(func(e int) uint64 { return uint64(l.table[e].Addr) })
	}
	return out
}

// entryOf finds the hit-table row holding addr, as the device's binary
// search does, or -1.
func entryOf(table []gpu.Range, addr uint64) int {
	i := sort.Search(len(table), func(i int) bool { return uint64(table[i].Addr) > addr })
	if i > 0 && table[i-1].Contains(gpu.DevicePtr(addr)) {
		return i - 1
	}
	return -1
}

// replayResult is one program's replay: the median host time of the
// passes and the summed cost of every launch.
type replayResult struct {
	wall  time.Duration
	total costmodel.ObjectCost
}

// replayProgram captures p once and replays it passes times. Every pass
// must reproduce the device's cost record of every launch exactly, which
// is what makes costmodel.replay_ms time the work the profiler does.
func replayProgram(p *program, passes int) (replayResult, error) {
	spec, launches, err := capture(p)
	if err != nil {
		return replayResult{}, fmt.Errorf("%s capture: %w", p.name, err)
	}
	var res replayResult
	walls := make([]float64, 0, passes)
	for pass := 0; pass < passes; pass++ {
		start := time.Now()
		got := replay(spec, launches)
		walls = append(walls, float64(time.Since(start)))
		for i, kc := range got {
			if !reflect.DeepEqual(kc, launches[i].want) {
				return res, fmt.Errorf("%s: replayed cost of launch %d differs from the device's record", p.name, i)
			}
		}
		if pass == 0 {
			for _, kc := range got {
				if kc != nil {
					res.total.Add(kc.Total)
				}
			}
		}
	}
	res.wall = time.Duration(median(walls))
	return res, nil
}
