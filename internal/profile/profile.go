// Package profile serializes object-level memory access traces, realizing
// the paper's online/offline split (§4) as a file format: the online data
// collector records on one machine, and the offline analyzer can replay
// pattern detection later — including with different thresholds, since
// every X in §3 is "user-tunable" and re-tuning must not require re-running
// the application.
//
// The format is versioned JSON. It captures everything the object-level
// detectors, peak analyzer, cost-model pricing and GUI need: API records
// (kind, stream, sequence, sizes, timing), object lifetimes with their
// access event lists and cost-model attribution, the run's cost-model spec
// and device capacity, and resolved call-path frames. Intra-object access
// maps are an online structure and are not serialized; a loaded profile
// supports object-level re-analysis only (the same asymmetry the paper's
// tool has: intra-object results are produced during the run).
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"drgpum/internal/callpath"
	"drgpum/internal/costmodel"
	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// FormatVersion is bumped on breaking changes to the file layout. Files of
// any other version are rejected.
const FormatVersion = 2

// File is the serialized profile.
type File struct {
	Version int    `json:"version"`
	Device  string `json:"device"`
	// Cycles is the simulated execution time of the run.
	Cycles uint64 `json:"cycles"`
	// PeakBytes is the device allocator's high-water mark.
	PeakBytes uint64 `json:"peak_bytes"`
	// Capacity is the device memory capacity.
	Capacity uint64 `json:"capacity"`
	// CostModel is the cost-model spec the run priced findings with;
	// absent when the model was off.
	CostModel *specJSON `json:"cost_model,omitempty"`

	APIs    []apiJSON             `json:"apis"`
	Objects []objectJSON          `json:"objects"`
	Paths   map[uint32][]pathJSON `json:"paths"`
}

// apiJSON is one GPU API record.
type apiJSON struct {
	Index  uint64 `json:"index"`
	Kind   uint8  `json:"kind"`
	Name   string `json:"name"`
	Stream int    `json:"stream"`
	Seq    int    `json:"seq"`
	Ptr    uint64 `json:"ptr,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Custom bool   `json:"custom,omitempty"`
	Start  uint64 `json:"start_cycle,omitempty"`
	End    uint64 `json:"end_cycle,omitempty"`
	Path   uint32 `json:"path,omitempty"`
}

// objectJSON is one data object with its access timeline.
type objectJSON struct {
	Ptr         uint64      `json:"ptr"`
	Size        uint64      `json:"size"`
	ElemSize    uint32      `json:"elem_size,omitempty"`
	Label       string      `json:"label,omitempty"`
	AllocAPI    uint64      `json:"alloc_api"`
	FreeAPI     int64       `json:"free_api"`
	AllocPath   uint32      `json:"alloc_path,omitempty"`
	FreePath    uint32      `json:"free_path,omitempty"`
	Pool        bool        `json:"pool,omitempty"`
	PoolSegment bool        `json:"pool_segment,omitempty"`
	Accesses    []eventJSON `json:"accesses,omitempty"`
	// Cost and CostByKernel are the object's cost-model attribution
	// (absent when the model was off or no kernel touched the object).
	Cost         *costJSON           `json:"cost,omitempty"`
	CostByKernel map[string]costJSON `json:"cost_by_kernel,omitempty"`
}

// costJSON is one costmodel.ObjectCost; the two convert into each other.
type costJSON struct {
	Accesses          uint64 `json:"accesses"`
	Warps             uint64 `json:"warps"`
	Transactions      uint64 `json:"transactions"`
	IdealTransactions uint64 `json:"ideal_transactions"`
	L1Hits            uint64 `json:"l1_hits"`
	L2Hits            uint64 `json:"l2_hits"`
	MemTransactions   uint64 `json:"mem_transactions"`
	ModeledCycles     uint64 `json:"modeled_cycles"`
}

// specJSON is one costmodel.Spec; the two convert into each other.
type specJSON struct {
	SectorBytes       uint64 `json:"sector_bytes"`
	LineBytes         uint64 `json:"line_bytes"`
	WarpSize          int    `json:"warp_size"`
	L1Sets            int    `json:"l1_sets"`
	L1Ways            int    `json:"l1_ways"`
	L2Sets            int    `json:"l2_sets"`
	L2Ways            int    `json:"l2_ways"`
	L1HitCycles       uint64 `json:"l1_hit_cycles"`
	L2HitCycles       uint64 `json:"l2_hit_cycles"`
	DRAMCycles        uint64 `json:"dram_cycles"`
	TLBEntries        int    `json:"tlb_entries"`
	PageBytes         uint64 `json:"page_bytes"`
	TLBMissCycles     uint64 `json:"tlb_miss_cycles"`
	CopyBytesPerCycle uint64 `json:"copy_bytes_per_cycle"`
	MallocCycles      uint64 `json:"malloc_cycles"`
	FreeCycles        uint64 `json:"free_cycles"`
}

// spec converts back, rejecting parameters the model cannot represent or
// that would zero out its closed forms: the geometry must be powers of two
// (sectors, lines, sets, pages) or at least one (warp, ways, TLB entries),
// a line must hold at least one sector, and every latency must be non-zero.
func (j *specJSON) spec() (costmodel.Spec, error) {
	s := costmodel.Spec(*j)
	pow2 := func(v uint64) bool { return v != 0 && v&(v-1) == 0 }
	switch {
	case !pow2(s.SectorBytes) || !pow2(s.LineBytes) || s.LineBytes < s.SectorBytes:
		return s, fmt.Errorf("profile: cost model sector/line geometry %d/%d is not two powers of two with line >= sector",
			s.SectorBytes, s.LineBytes)
	case s.L1Sets < 1 || !pow2(uint64(s.L1Sets)) || s.L2Sets < 1 || !pow2(uint64(s.L2Sets)) || !pow2(s.PageBytes):
		return s, fmt.Errorf("profile: cost model set counts %d/%d or page size %d not a power of two",
			s.L1Sets, s.L2Sets, s.PageBytes)
	case s.WarpSize < 1 || s.L1Ways < 1 || s.L2Ways < 1 || s.TLBEntries < 1:
		return s, fmt.Errorf("profile: cost model warp size, ways or TLB entries below 1")
	case s.L1HitCycles == 0 || s.L2HitCycles == 0 || s.DRAMCycles == 0 || s.TLBMissCycles == 0:
		return s, fmt.Errorf("profile: cost model latency of zero cycles")
	}
	return s, nil
}

// eventJSON is one access event.
type eventJSON struct {
	API   uint64 `json:"api"`
	Kind  uint8  `json:"kind"`
	Read  bool   `json:"r,omitempty"`
	Write bool   `json:"w,omitempty"`
}

// pathJSON is one resolved frame.
type pathJSON struct {
	Function string `json:"fn"`
	File     string `json:"file"`
	Line     int    `json:"line"`
}

// Meta carries run-level values that live outside the trace.
type Meta struct {
	Device    string
	Cycles    uint64
	PeakBytes uint64
	Capacity  uint64
	// CostModel is the spec the run priced findings with, or nil when the
	// cost model was off.
	CostModel *costmodel.Spec
}

// Save writes the trace as a profile file. The trace's Unwinder must be the
// live *callpath.Unwinder that captured the paths (or a Frozen resolver
// from a previous load).
func Save(t *trace.Trace, meta Meta, w io.Writer) error {
	f := File{
		Version:   FormatVersion,
		Device:    meta.Device,
		Cycles:    meta.Cycles,
		PeakBytes: meta.PeakBytes,
		Capacity:  meta.Capacity,
		Paths:     map[uint32][]pathJSON{},
	}
	if meta.CostModel != nil {
		spec := specJSON(*meta.CostModel)
		f.CostModel = &spec
	}

	// Only referenced paths are written; resolving through the interface
	// keeps Save working for both live and re-saved profiles.
	addPath := func(id callpath.PathID) {
		if id == 0 {
			return
		}
		if _, ok := f.Paths[uint32(id)]; ok {
			return
		}
		var frames []pathJSON
		for _, fr := range t.Unwinder.Frames(id) {
			frames = append(frames, pathJSON{Function: fr.Function, File: fr.File, Line: fr.Line})
		}
		f.Paths[uint32(id)] = frames
	}

	for _, a := range t.APIs {
		addPath(a.Path)
		f.APIs = append(f.APIs, apiJSON{
			Index:  a.Rec.Index,
			Kind:   uint8(a.Rec.Kind),
			Name:   a.Rec.Name,
			Stream: a.Rec.Stream,
			Seq:    a.Rec.SeqInStream,
			Ptr:    uint64(a.Rec.Ptr),
			Size:   a.Rec.Size,
			Custom: a.Rec.Custom,
			Start:  a.Rec.StartCycle,
			End:    a.Rec.EndCycle,
			Path:   uint32(a.Path),
		})
	}
	for _, o := range t.Objects {
		addPath(o.AllocPath)
		addPath(o.FreePath)
		oj := objectJSON{
			Ptr:         uint64(o.Ptr),
			Size:        o.Size,
			ElemSize:    o.ElemSize,
			Label:       o.Label,
			AllocAPI:    o.AllocAPI,
			FreeAPI:     o.FreeAPI,
			AllocPath:   uint32(o.AllocPath),
			FreePath:    uint32(o.FreePath),
			Pool:        o.Pool,
			PoolSegment: o.PoolSegment,
		}
		for _, ev := range o.Accesses {
			oj.Accesses = append(oj.Accesses, eventJSON{
				API: ev.API, Kind: uint8(ev.APIKind), Read: ev.Read, Write: ev.Write,
			})
		}
		if o.Cost != (costmodel.ObjectCost{}) {
			c := costJSON(o.Cost)
			oj.Cost = &c
		}
		for k, c := range o.CostByKernel {
			if oj.CostByKernel == nil {
				oj.CostByKernel = make(map[string]costJSON, len(o.CostByKernel))
			}
			oj.CostByKernel[k] = costJSON(c)
		}
		f.Objects = append(f.Objects, oj)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// Load reads a profile file back into a trace plus its metadata. The file
// is untrusted input: anything that a collected trace could not contain is
// rejected. Each API's touch sets and lifetime subject are rebuilt from the
// object records, so the trace has the shape the collector builds; the
// topological timestamps are not stored (run depgraph.Annotate before
// detection).
func Load(r io.Reader) (*trace.Trace, Meta, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, Meta{}, fmt.Errorf("profile: decoding: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, Meta{}, fmt.Errorf("profile: unsupported version %d (want %d)", f.Version, FormatVersion)
	}

	meta := Meta{Device: f.Device, Cycles: f.Cycles, PeakBytes: f.PeakBytes, Capacity: f.Capacity}
	if f.CostModel != nil {
		spec, err := f.CostModel.spec()
		if err != nil {
			return nil, Meta{}, err
		}
		meta.CostModel = &spec
	}

	paths := make(map[callpath.PathID][]callpath.Frame, len(f.Paths))
	for id, frames := range f.Paths {
		fs := make([]callpath.Frame, len(frames))
		for i, fr := range frames {
			fs[i] = callpath.Frame{Function: fr.Function, File: fr.File, Line: fr.Line}
		}
		paths[callpath.PathID(id)] = fs
	}

	t := &trace.Trace{Unwinder: callpath.Frozen(paths)}
	for i, a := range f.APIs {
		if a.Index != uint64(i) {
			return nil, Meta{}, fmt.Errorf("profile: API %d out of order (index %d)", i, a.Index)
		}
		t.APIs = append(t.APIs, &trace.APIInfo{
			Rec: &gpu.APIRecord{
				Index:       a.Index,
				Kind:        gpu.APIKind(a.Kind),
				Name:        a.Name,
				Stream:      a.Stream,
				SeqInStream: a.Seq,
				Ptr:         gpu.DevicePtr(a.Ptr),
				Size:        a.Size,
				Custom:      a.Custom,
				StartCycle:  a.Start,
				EndCycle:    a.End,
			},
			Path: callpath.PathID(a.Path),
			Topo: a.Index, // provisional; depgraph.Annotate recomputes
		})
	}
	nAPIs := uint64(len(t.APIs))
	for i, oj := range f.Objects {
		if oj.AllocAPI >= nAPIs || (oj.FreeAPI != trace.NoAPI && uint64(oj.FreeAPI) >= nAPIs) {
			return nil, Meta{}, fmt.Errorf("profile: object %d references missing APIs", i)
		}
		// Each lifetime endpoint is the subject of its own Malloc or Free
		// API, as the collector records it; replay derives the API's
		// subject object from these fields.
		id := trace.ObjectID(i)
		alloc := t.APIs[oj.AllocAPI]
		if alloc.Rec.Kind != gpu.APIMalloc || alloc.HasObj {
			return nil, Meta{}, fmt.Errorf("profile: object %d allocated by API %d, which is not a free Malloc API", i, oj.AllocAPI)
		}
		alloc.Obj, alloc.HasObj = id, true
		if oj.FreeAPI != trace.NoAPI {
			free := t.APIs[oj.FreeAPI]
			if free.Rec.Kind != gpu.APIFree || free.HasObj {
				return nil, Meta{}, fmt.Errorf("profile: object %d freed by API %d, which is not a free Free API", i, oj.FreeAPI)
			}
			free.Obj, free.HasObj = id, true
		}
		// Semantic invariants of a real trace — without them the lifetime
		// events would put cycles into the dependency graph: deallocation
		// strictly after allocation, accesses strictly increasing and
		// strictly inside the lifetime window.
		if oj.FreeAPI != trace.NoAPI && uint64(oj.FreeAPI) <= oj.AllocAPI {
			return nil, Meta{}, fmt.Errorf("profile: object %d freed (API %d) at or before its allocation (API %d)",
				i, oj.FreeAPI, oj.AllocAPI)
		}
		prev := oj.AllocAPI
		for _, ev := range oj.Accesses {
			if ev.API <= prev {
				return nil, Meta{}, fmt.Errorf("profile: object %d access at API %d is not strictly after API %d",
					i, ev.API, prev)
			}
			if oj.FreeAPI != trace.NoAPI && ev.API >= uint64(oj.FreeAPI) {
				return nil, Meta{}, fmt.Errorf("profile: object %d accessed (API %d) at or after its free", i, ev.API)
			}
			prev = ev.API
		}
		o := &trace.Object{
			ID:          trace.ObjectID(i),
			Ptr:         gpu.DevicePtr(oj.Ptr),
			Size:        oj.Size,
			ElemSize:    oj.ElemSize,
			Label:       oj.Label,
			AllocAPI:    oj.AllocAPI,
			FreeAPI:     oj.FreeAPI,
			AllocPath:   callpath.PathID(oj.AllocPath),
			FreePath:    callpath.PathID(oj.FreePath),
			Pool:        oj.Pool,
			PoolSegment: oj.PoolSegment,
		}
		for _, ev := range oj.Accesses {
			if ev.API >= nAPIs {
				return nil, Meta{}, fmt.Errorf("profile: object %d access references missing API %d", i, ev.API)
			}
			// The collector records an event only for a read or write by
			// a copy, set or kernel, tagged with that API's kind.
			api := t.APIs[ev.API]
			if kind := api.Rec.Kind; uint8(kind) != ev.Kind || kind == gpu.APIMalloc || kind == gpu.APIFree || !(ev.Read || ev.Write) {
				return nil, Meta{}, fmt.Errorf("profile: object %d access at API %d is not a read or write of that API's kind", i, ev.API)
			}
			if ev.Read {
				api.ReadObjs = append(api.ReadObjs, id)
			}
			if ev.Write {
				api.WriteObjs = append(api.WriteObjs, id)
			}
			o.Accesses = append(o.Accesses, trace.AccessEvent{
				API: ev.API, APIKind: gpu.APIKind(ev.Kind), Read: ev.Read, Write: ev.Write,
			})
		}
		if oj.Cost != nil {
			o.Cost = costmodel.ObjectCost(*oj.Cost)
		}
		for k, c := range oj.CostByKernel {
			if o.CostByKernel == nil {
				o.CostByKernel = make(map[string]costmodel.ObjectCost, len(oj.CostByKernel))
			}
			o.CostByKernel[k] = costmodel.ObjectCost(c)
		}
		t.Objects = append(t.Objects, o)
	}

	return t, meta, nil
}
