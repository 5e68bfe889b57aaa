// Package depgraph implements the multi-stream dependency graph and
// topological timestamping of paper §5.3 (Definition 5.1, Figure 4).
//
// Single-stream programs execute GPU APIs strictly in invocation order, so
// invocation indices are already valid timestamps. Multi-stream programs
// interleave streams; DrGPUM restores a well-defined order over a DAG whose
// vertices are GPU APIs and whose edges are (a) intra-stream program order
// and (b) RAW/WAW/WAR data dependencies on data objects. The paper sorts
// that DAG with level-synchronous Kahn: every vertex whose in-degree
// reaches zero in the same round receives the same global timestamp T.
// Incremental computes the same timestamps at API arrival without
// materializing the edges; Annotate drives it over a complete trace.
package depgraph

import (
	"fmt"

	"drgpum/internal/trace"
)

// EdgeKind distinguishes the dependency classes of Definition 5.1.
type EdgeKind uint8

const (
	// EdgeIntraStream is program order within one stream (green edges in
	// the paper's Figure 4).
	EdgeIntraStream EdgeKind = iota
	// EdgeRAW is a read-after-write data dependency.
	EdgeRAW
	// EdgeWAW is a write-after-write (or free-after-write) dependency.
	EdgeWAW
	// EdgeWAR is a write-after-read (or free-after-read) dependency.
	EdgeWAR
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeIntraStream:
		return "intra-stream"
	case EdgeRAW:
		return "RAW"
	case EdgeWAW:
		return "WAW"
	case EdgeWAR:
		return "WAR"
	default:
		return fmt.Sprintf("edge(%d)", uint8(k))
	}
}

// Graph summarizes the dependency graph over one trace's GPU APIs: its
// vertex count and how many edges of each kind it has. The timestamps the
// graph induces are written into the trace (APIInfo.Topo).
type Graph struct {
	// N is the number of vertices (== number of APIs).
	N     int
	histo [4]int
}

// Annotate assigns the topological timestamp of every API of a complete
// trace — one loaded from a profile, say — by feeding the APIs to a new
// Incremental in invocation order, and returns it for the graph summary
// and the largest timestamp.
func Annotate(t *trace.Trace) *Incremental {
	inc := NewIncremental()
	for _, a := range t.APIs {
		inc.Observe(t, a)
	}
	return inc
}

// InefficiencyDistance returns the timestamp difference between two APIs —
// the paper's severity metric for a dependent pair (§5.3, Figure 4: object
// O1 allocated at T=0 and first accessed at T=3 has distance 3).
func InefficiencyDistance(t *trace.Trace, a, b uint64) uint64 {
	ta, tb := t.APIs[a].Topo, t.APIs[b].Topo
	if tb >= ta {
		return tb - ta
	}
	return ta - tb
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("depgraph{vertices: %d, intra-stream: %d, RAW: %d, WAW: %d, WAR: %d}",
		g.N, g.histo[EdgeIntraStream], g.histo[EdgeRAW], g.histo[EdgeWAW], g.histo[EdgeWAR])
}
