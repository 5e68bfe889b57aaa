package objlevel

import (
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// Accumulator evaluates the consecutive-access rules (temporary idleness,
// dead write) at access arrival, so the streaming profiler can retire raw
// access lists when a window closes and still report what a walk over the
// full lists would. Per object it retains only the previous access event
// and the matched windows — O(findings), not O(accesses).
type Accumulator struct {
	cfg  Config
	prev map[trace.ObjectID]trace.AccessEvent
	ti   map[trace.ObjectID][]pattern.IdleWindow
	dead map[trace.ObjectID][]pattern.IdleWindow
}

// NewAccumulator creates an accumulator evaluating under cfg's thresholds
// (unset fields take their defaults).
func NewAccumulator(cfg Config) *Accumulator {
	return &Accumulator{
		cfg:  normalized(cfg),
		prev: make(map[trace.ObjectID]trace.AccessEvent),
		ti:   make(map[trace.ObjectID][]pattern.IdleWindow),
		dead: make(map[trace.ObjectID][]pattern.IdleWindow),
	}
}

// Accumulate feeds every access event of a complete trace — one loaded
// from a profile, say — to a new accumulator, object by object in event
// order. The rules read only per-object state and final timestamps, so
// this matches feeding the events at arrival. Timestamps must be assigned.
func Accumulate(t *trace.Trace, cfg Config) *Accumulator {
	ac := NewAccumulator(cfg)
	for _, o := range t.Objects {
		for _, ev := range o.Accesses {
			ac.Observe(t, o.ID, ev)
		}
	}
	return ac
}

// Observe ingests one access event of object id. It must be called once
// per (object, API) event, in API order per object, after the event's
// topological timestamp is final — the profiler's arrival hook calls it
// right after assigning the API's timestamp.
func (ac *Accumulator) Observe(t *trace.Trace, id trace.ObjectID, ev trace.AccessEvent) {
	if p, ok := ac.prev[id]; ok {
		ti, dead := evalPair(t, ac.cfg, &p, &ev, ac.ti[id], ac.dead[id])
		if len(ti) > 0 {
			ac.ti[id] = ti
		}
		if len(dead) > 0 {
			ac.dead[id] = dead
		}
	}
	ac.prev[id] = ev
}

// Detect runs all seven object-level detectors over an annotated trace
// whose access events ac has observed, and returns the findings in
// deterministic order: grouped by object, then by pattern. The per-object
// window lists come from the accumulator; everything else — the lifetime
// endpoint rules and the redundant-allocation pass, which need only
// first/last events and object sizes, both kept by streaming compaction —
// reads the trace.
func Detect(t *trace.Trace, ac *Accumulator) []pattern.Finding {
	var out []pattern.Finding
	for _, o := range t.Objects {
		if o.PoolSegment {
			// Pool backing segments are carriers managed by the pool, not
			// application data objects; their tensors are analyzed instead.
			continue
		}
		out = appendLifetimeFindings(out, t, o, ac.ti[o.ID], ac.dead[o.ID])
	}
	out = append(out, detectRedundant(t, ac.cfg)...)
	return out
}
