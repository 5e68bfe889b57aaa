package depgraph

import (
	"sort"

	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// Incremental assigns topological timestamps at API arrival, producing the
// timestamps level-synchronous Kahn sorting of the Definition 5.1 graph
// would — without materializing edges. It is the only implementation: the
// profiler's arrival hook feeds it live, and Annotate replays a complete
// trace through it. The Kahn construction survives as the differential
// reference in reference_test.go.
//
// The equivalence rests on two facts about that construction:
//
//  1. Level-synchronous Kahn assigns each vertex the longest-path level:
//     topo(v) = max over predecessors u of topo(u)+1, or 0 with no
//     predecessors. Every dependency edge points from a lower invocation
//     index to a higher one, so when v arrives all its predecessors already
//     carry final timestamps and topo(v) is computable on the spot.
//
//  2. The graph deduplicates parallel edges globally, keeping the first
//     kind added in its phase order: all intra-stream edges, then per
//     object in ascending ID, and within one vertex's event RAW before WAW
//     before the WARs in reader order. Every edge into vertex v is added
//     while v's own event is processed (to == v throughout), so replaying
//     that exact order per arriving vertex with a per-vertex dedup set
//     keyed by the source reproduces both the edge set (hence the
//     timestamps) and the per-kind histogram.
//
// Resident state is O(streams + live objects): per-stream last vertex and,
// per live object, the last writer plus the readers since that write (the
// one component proportional to access fan-out rather than liveness — one
// word per reader between consecutive writes).
type Incremental struct {
	n            int
	lastInStream map[int]uint64
	objs         map[trace.ObjectID]*objDep
	// seen dedups edges into the vertex currently being observed, keyed by
	// source vertex (the target is always the current vertex).
	seen  map[uint64]EdgeKind
	histo [4]int
	// maxTopo is the largest timestamp assigned so far.
	maxTopo uint64
	// merged is scratch for the sorted union of an API's touch sets.
	merged []trace.ObjectID
}

// objDep is the per-object tail state of the graph's data-dependency walk.
type objDep struct {
	lastWriter        uint64
	hasWriter         bool
	readersSinceWrite []uint64
}

// NewIncremental creates an empty incremental annotator.
func NewIncremental() *Incremental {
	return &Incremental{
		lastInStream: make(map[int]uint64),
		objs:         make(map[trace.ObjectID]*objDep),
		seen:         make(map[uint64]EdgeKind),
	}
}

// Observe ingests the API info, assigns its final topological timestamp,
// and folds its dependency edges into the histogram. It must be called once
// per API in invocation order, after the collector appended the APIInfo (so
// touch sets and lifetime endpoints are final). It returns the union of the
// API's read and write sets, ascending by ID; the slice is reused by the
// next call.
func (inc *Incremental) Observe(t *trace.Trace, info *trace.APIInfo) []trace.ObjectID {
	idx := info.Rec.Index
	clear(inc.seen)
	var topo uint64
	// The graph visits objects in ascending ID; the touch sets are in
	// first-touch order, so union and sort them so edge-dedup winners (and
	// the histogram) match.
	inc.merged = unionSorted(inc.merged[:0], info.ReadObjs, info.WriteObjs)

	addEdge := func(from uint64, kind EdgeKind) {
		if from == idx {
			return
		}
		if _, dup := inc.seen[from]; dup {
			return
		}
		inc.seen[from] = kind
		inc.histo[kind]++
		if lvl := t.APIs[from].Topo + 1; lvl > topo {
			topo = lvl
		}
	}

	// (1) Intra-stream program order.
	if prev, ok := inc.lastInStream[info.Rec.Stream]; ok {
		addEdge(prev, EdgeIntraStream)
	}
	inc.lastInStream[info.Rec.Stream] = idx

	// (2) Data dependencies: per object, the last writer feeds each later
	// reader (RAW) and the next writer or free (WAW), and each reader since
	// that write feeds the next writer or free (WAR). The allocation counts
	// as the object's initial writer.
	connectWrite := func(d *objDep) {
		if d.hasWriter {
			addEdge(d.lastWriter, EdgeWAW)
		}
		for _, r := range d.readersSinceWrite {
			addEdge(r, EdgeWAR)
		}
		d.readersSinceWrite = d.readersSinceWrite[:0]
		d.lastWriter = idx
		d.hasWriter = true
	}

	switch {
	case info.Rec.Kind == gpu.APIMalloc && info.HasObj:
		// The allocation is the object's initial writer; no edge yet.
		inc.objs[info.Obj] = &objDep{lastWriter: idx, hasWriter: true}

	case info.Rec.Kind == gpu.APIFree && info.HasObj:
		if d := inc.objs[info.Obj]; d != nil {
			connectWrite(d)
			delete(inc.objs, info.Obj)
		}

	default:
		for _, id := range inc.merged {
			d := inc.objs[id]
			if d == nil {
				continue // freed or pool-delisted before this arrival
			}
			read := containsID(info.ReadObjs, id)
			write := containsID(info.WriteObjs, id)
			if read && d.hasWriter {
				addEdge(d.lastWriter, EdgeRAW)
			}
			if write {
				connectWrite(d)
			} else if read {
				d.readersSinceWrite = append(d.readersSinceWrite, idx)
			}
		}
	}

	info.Topo = topo
	if topo > inc.maxTopo {
		inc.maxTopo = topo
	}
	inc.n++
	return inc.merged
}

// MaxTopo returns the largest timestamp assigned so far: the last point of
// the live-bytes timeline.
func (inc *Incremental) MaxTopo() uint64 { return inc.maxTopo }

// Graph returns the summary of the graph observed so far.
func (inc *Incremental) Graph() *Graph {
	return &Graph{N: inc.n, histo: inc.histo}
}

// unionSorted unions two touch sets (each duplicate-free but in first-touch
// order) into dst, ascending by ID.
func unionSorted(dst, a, b []trace.ObjectID) []trace.ObjectID {
	dst = append(dst, a...)
	for _, id := range b {
		if !containsID(dst, id) {
			dst = append(dst, id)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// containsID reports membership in a tiny touch set (linear scan, same
// trade-off as the collector's appendUnique; sets are in first-touch order,
// so no early exit).
func containsID(s []trace.ObjectID, id trace.ObjectID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}
