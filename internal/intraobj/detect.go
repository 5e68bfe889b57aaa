package intraobj

import (
	"drgpum/internal/pattern"
)

// Config carries the user-tunable thresholds of §3.2.
type Config struct {
	// OverallocThreshold is X of Definition 3.8: report an object whose
	// accessed-element percentage is below this. The paper uses 80.
	OverallocThreshold float64
	// OverallocFragThreshold additionally requires the fragmentation of the
	// unaccessed space (Equation 1) to be below this percentage, following
	// the paper's rule "we investigate a data object iff both percentages
	// are less than 80%" — objects whose unaccessed elements are scattered
	// are not actionable (Table 2). The paper uses 80.
	OverallocFragThreshold float64
	// NUAFThreshold is X of Definition 3.9: report when the coefficient of
	// variation of per-element access frequencies exceeds this percentage.
	// The paper uses 20.
	NUAFThreshold float64
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{OverallocThreshold: 80, OverallocFragThreshold: 80, NUAFThreshold: 20}
}

// Detect evaluates the three intra-object patterns over everything the
// recorder observed and returns findings in object insertion order. Only
// objects touched by at least one instrumented kernel are considered —
// never-observed objects are the object-level unused-allocation detector's
// business, and reporting 0% access for a kernel that simply was not
// instrumented would be a false positive. Each object's values come from
// its summary: the one Seal stored, or one summarize computes from the live
// maps.
func (r *Recorder) Detect(cfg Config) []pattern.Finding {
	if cfg.OverallocThreshold <= 0 {
		cfg.OverallocThreshold = 80
	}
	if cfg.OverallocFragThreshold <= 0 {
		cfg.OverallocFragThreshold = 80
	}
	if cfg.NUAFThreshold <= 0 {
		cfg.NUAFThreshold = 20
	}
	r.Flush()

	var out []pattern.Finding
	var buf summary
	for _, id := range r.order {
		st := r.states[id]
		s := st.summary(&buf)

		// Overallocation (Definition 3.8) with the Equation 1 fragmentation
		// metric attached for Table 2 guidance.
		if s.accessedPct < cfg.OverallocThreshold && s.fragPct < cfg.OverallocFragThreshold {
			es := st.obj.ElemWidth()
			out = append(out, pattern.Finding{
				Pattern:          pattern.Overallocation,
				Object:           st.obj.ID,
				AccessedPct:      s.accessedPct,
				FragmentationPct: s.fragPct,
				WastedBytes:      uint64(st.elems-s.count) * es,
			})
		}

		// Structured Access (Definition 3.10): >= 2 APIs, every API touched
		// a contiguous slice, and no two slices overlapped.
		if st.structured() {
			out = append(out, pattern.Finding{
				Pattern:     pattern.StructuredAccess,
				Object:      st.obj.ID,
				AtKernel:    st.hotKernel,
				WastedBytes: s.savings,
			})
		}

		// Non-uniform Access Frequency (Definition 3.9): a Poisson
		// shot-noise floor is subtracted from the variation so Monte Carlo
		// sampling does not masquerade as skew.
		if s.nuaf > cfg.NUAFThreshold {
			out = append(out, pattern.Finding{
				Pattern:      pattern.NonUniformAccessFrequency,
				Object:       st.obj.ID,
				AtKernel:     st.hotKernel,
				APIs:         []uint64{st.lastAPI},
				VariationPct: s.nuaf,
			})
		}
	}
	return out
}

// structured reports whether the object satisfies Definition 3.10: at
// least two touching APIs, each touching one contiguous slice, all slices
// pairwise disjoint.
func (st *objState) structured() bool {
	return st.apiTouches >= 2 && !st.saViolated && !st.saNonContig
}

// FrequencyHistogram returns the cumulative per-element access frequencies
// of an object summed over 32 equal-width element ranges, the same for a
// live and a sealed object. The paper's GUI plots this to help users pick
// hot slices for shared-memory placement (§5.2, §7.3).
func (r *Recorder) FrequencyHistogram(id int) []uint64 {
	st := r.state(id)
	if st == nil {
		return nil
	}
	var buf summary
	return append([]uint64(nil), st.summary(&buf).hist[:]...)
}

// AccessedPctOf returns the accessed-element percentage of an object the
// recorder observed, and whether it was observed at all.
func (r *Recorder) AccessedPctOf(id int) (float64, bool) {
	if st := r.state(id); st != nil {
		var buf summary
		return st.summary(&buf).accessedPct, true
	}
	return 0, false
}
