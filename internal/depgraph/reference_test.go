package depgraph

import (
	"fmt"

	"drgpum/internal/trace"
)

// This file keeps the batch construction of paper §5.3 — build the whole
// Definition 5.1 graph, then level-synchronous Kahn sort it — as the
// reference Incremental is checked against. The function bodies are the
// original Build, Sort and Validate, over a graph type that keeps the edge
// list and adjacency the production Graph no longer carries.

// refEdge is one dependency between two GPU APIs (vertex IDs are API
// invocation indices).
type refEdge struct {
	From uint64
	To   uint64
	Kind EdgeKind
	// Obj is the data object carrying a data dependency (unset for
	// intra-stream edges).
	Obj trace.ObjectID
}

// refGraph is the materialized dependency graph.
type refGraph struct {
	N        int
	Edges    []refEdge
	succ     [][]uint64
	indegree []int
}

// refBuild constructs the dependency graph for a trace per Definition 5.1.
func refBuild(t *trace.Trace) *refGraph {
	g := &refGraph{N: len(t.APIs)}
	g.succ = make([][]uint64, g.N)
	g.indegree = make([]int, g.N)

	// Deduplicate parallel edges (e.g. an API both in program order and in
	// data dependency with its predecessor); the graph keeps the first.
	type pair struct{ from, to uint64 }
	seen := make(map[pair]bool)
	addEdge := func(from, to uint64, kind EdgeKind, obj trace.ObjectID) {
		if from == to {
			return
		}
		p := pair{from, to}
		if seen[p] {
			return
		}
		seen[p] = true
		g.Edges = append(g.Edges, refEdge{From: from, To: to, Kind: kind, Obj: obj})
		g.succ[from] = append(g.succ[from], to)
		g.indegree[to]++
	}

	// (1) Intra-stream execution dependencies: immediate successor within
	// the same stream.
	lastInStream := make(map[int]uint64)
	for _, a := range t.APIs {
		idx := a.Rec.Index
		if prev, ok := lastInStream[a.Rec.Stream]; ok {
			addEdge(prev, idx, EdgeIntraStream, 0)
		}
		lastInStream[a.Rec.Stream] = idx
	}

	// (2) Data dependencies per object. For each object we walk its event
	// timeline (alloc, accesses, free) in invocation order and connect:
	//   - last writer -> each subsequent reader (RAW),
	//   - last writer -> next writer/free (WAW),
	//   - each reader  -> next writer/free (WAR).
	// The allocation API counts as the initial "writer" (it defines the
	// object), matching "v_i allocates/writes a data object" in Def. 5.1.
	for _, o := range t.Objects {
		lastWriter := o.AllocAPI
		hasWriter := true
		var readersSinceWrite []uint64

		connectWrite := func(idx uint64) {
			if hasWriter {
				addEdge(lastWriter, idx, EdgeWAW, o.ID)
			}
			for _, r := range readersSinceWrite {
				addEdge(r, idx, EdgeWAR, o.ID)
			}
			readersSinceWrite = readersSinceWrite[:0]
			lastWriter = idx
			hasWriter = true
		}

		for _, ev := range o.Accesses {
			// An API that both reads and writes the object (e.g. an
			// in-place kernel) first depends on prior state (RAW) and then
			// becomes the new writer (WAW/WAR).
			if ev.Read {
				if hasWriter {
					addEdge(lastWriter, ev.API, EdgeRAW, o.ID)
				}
			}
			if ev.Write {
				connectWrite(ev.API)
			} else if ev.Read {
				readersSinceWrite = append(readersSinceWrite, ev.API)
			}
		}
		if o.Freed() {
			connectWrite(uint64(o.FreeAPI))
		}
	}
	return g
}

// Sort runs level-synchronous Kahn topological sorting (paper §5.3 steps
// 1-5) and returns the timestamp of every vertex: all vertices whose
// in-degree is zero in the same round share one timestamp T, then T
// increases by one. The returned slice is indexed by API invocation index.
//
// Sort panics if the graph has a cycle, which cannot happen for graphs built
// from real traces (program order is acyclic and data dependencies follow
// invocation order).
func (g *refGraph) Sort() []uint64 {
	topo := make([]uint64, g.N)
	indeg := make([]int, g.N)
	copy(indeg, g.indegree)

	frontier := make([]uint64, 0, g.N)
	for v := 0; v < g.N; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, uint64(v))
		}
	}

	var ts uint64
	visited := 0
	for len(frontier) > 0 {
		var next []uint64
		for _, v := range frontier {
			topo[v] = ts
			visited++
			for _, w := range g.succ[v] {
				indeg[w]--
				if indeg[w] == 0 {
					next = append(next, w)
				}
			}
		}
		frontier = next
		ts++
	}
	if visited != g.N {
		panic("depgraph: cycle detected in GPU API dependency graph")
	}
	return topo
}

// Validate checks that the timestamps in t respect every edge of g (for any
// edge u->v, Topo[u] < Topo[v]) and that streams remain internally ordered.
// It returns the first violated edge, or nil. Property tests use this to
// verify Sort on randomized traces.
func (g *refGraph) Validate(t *trace.Trace) *refEdge {
	for i := range g.Edges {
		e := &g.Edges[i]
		if t.APIs[e.From].Topo >= t.APIs[e.To].Topo {
			return e
		}
	}
	return nil
}

// matchReference checks the timestamps Incremental wrote into t, and the
// graph summary g it produced, against the Kahn reference: every API's
// timestamp, every reference edge, and the per-kind edge histogram must
// agree.
func matchReference(t *trace.Trace, g *Graph) error {
	ref := refBuild(t)
	want := ref.Sort()
	if g.N != ref.N {
		return fmt.Errorf("vertices: incremental %d, reference %d", g.N, ref.N)
	}
	for i, a := range t.APIs {
		if a.Topo != want[i] {
			return fmt.Errorf("API %d: incremental timestamp %d, reference %d", i, a.Topo, want[i])
		}
	}
	if e := ref.Validate(t); e != nil {
		return fmt.Errorf("violated edge %+v", *e)
	}
	var histo [4]int
	for _, e := range ref.Edges {
		histo[e.Kind]++
	}
	if g.histo != histo {
		return fmt.Errorf("edge histogram: incremental %v, reference %v", g.histo, histo)
	}
	return nil
}
