// Cross-validation of the static kernel advisor against the dynamic
// profiler: for every bundled workload and variant, the statically
// decidable pattern set (internal/staticadv over the workload's Run
// source) is compared against the dynamically detected Table 1 pattern
// matrix. Agreement is the advisor's soundness evidence — every
// static-only hit must be justified (annotated in source) or it is an
// advisor bug.

package tables

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/lint"
	"drgpum/internal/pattern"
	"drgpum/internal/staticadv"
	"drgpum/internal/workloads"
)

// XValPatterns returns the patterns the static advisor can decide from
// source: Early Allocation and Late Deallocation (lifetime), Unused
// Allocation (unusedalloc), Dead Write (deadstore + redundantcopy). The
// other six need runtime information (sizes, values, access densities).
func XValPatterns() []pattern.Pattern {
	return []pattern.Pattern{
		pattern.EarlyAllocation,
		pattern.LateDeallocation,
		pattern.UnusedAllocation,
		pattern.DeadWrite,
	}
}

// XValRow is the agreement record of one workload×variant.
type XValRow struct {
	// Program is the workload name, Variant the analyzed variant.
	Program string
	Variant workloads.Variant
	// Confirmed holds patterns found by both advisors, DynamicOnly those
	// only the profiler saw (static analysis is conservative: escapes,
	// aliasing and value-dependent patterns are out of its reach),
	// StaticOnly those only the advisor reported (each one a bug unless
	// justified). All in pattern table order, restricted to XValPatterns.
	Confirmed   []pattern.Pattern
	DynamicOnly []pattern.Pattern
	StaticOnly  []pattern.Pattern
	// StaticFindings is the advisor's raw finding count for the pair.
	StaticFindings int
	// UCConfirmed / UCUnexplained cross-check the cost model's dynamic
	// uncoalesced-access findings against the advisor's stride classes:
	// a kernel the profiler flagged as uncoalesced is confirmed when the
	// stride analyzer attributes at least one strided or irregular access
	// to its loops, unexplained otherwise. Informational only — the Gate
	// does not consider these (the stride analyzer cannot see through
	// every addressing idiom, so an unexplained kernel is a coverage gap,
	// not necessarily a bug).
	UCConfirmed   []string
	UCUnexplained []string
}

// XValReport is the full cross-validation matrix.
type XValReport struct {
	Rows []XValRow
}

// CrossValidate builds the matrix. The dynamic side profiles every
// registered workload×variant on e at intra-object granularity (the
// Table 1 configuration, so a Table 1 sweep on the same engine is reused
// from the profile cache); the static side analyzes the workload package
// source once per variant assumption.
func CrossValidate(e *engine.Engine, spec gpu.DeviceSpec) (*XValReport, error) {
	pkgs, err := lint.Load("drgpum/internal/workloads")
	if err != nil {
		return nil, fmt.Errorf("tables: loading workloads source: %v", err)
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("tables: expected one workloads package, got %d", len(pkgs))
	}
	static := make(map[string]map[workloads.Variant]map[pattern.Pattern]bool)
	counts := make(map[string]map[workloads.Variant]int)
	for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
		sv := staticadv.VariantNaive
		if v == workloads.VariantOptimized {
			sv = staticadv.VariantOptimized
		}
		for _, wf := range staticadv.AnalyzeWorkloads(pkgs[0], sv) {
			if static[wf.Workload] == nil {
				static[wf.Workload] = make(map[workloads.Variant]map[pattern.Pattern]bool)
				counts[wf.Workload] = make(map[workloads.Variant]int)
			}
			set := make(map[pattern.Pattern]bool)
			for _, f := range wf.Findings {
				if f.Pattern == pattern.DeadWrite && f.Kernel != "" {
					// Kernel-store dead writes (a kernel stores a buffer
					// nothing ever reads) are real inefficiencies only the
					// advisor can see: the dynamic DW rule (Definition 3.7)
					// pairs copy/set writes, and a kernel store never forms
					// such a pair. They cannot be cross-validated, so they
					// stay out of the agreement matrix.
					continue
				}
				set[f.Pattern] = true
			}
			static[wf.Workload][v] = set
			counts[wf.Workload][v] = len(wf.Findings)
		}
	}

	// Stride side of the uncoalesced-access cross-check: which kernels the
	// advisor statically classifies as doing strided or irregular accesses.
	strideWaste := make(map[string]bool)
	for _, l := range staticadv.StrideReport(pkgs[0]) {
		if l.Strided > 0 || l.Irregular > 0 {
			strideWaste[l.Kernel] = true
		}
	}

	ws := workloads.All()
	variants := []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized}
	var specs []engine.RunSpec
	for _, w := range ws {
		for _, v := range variants {
			specs = append(specs, engine.RunSpec{
				Workload: w,
				Spec:     spec,
				Variant:  v,
				Level:    gpu.PatchFull,
				Sampling: 1,
			})
		}
	}
	results, err := e.Run(specs)
	if err != nil {
		return nil, err
	}

	rep := &XValReport{}
	for i, w := range ws {
		for j, v := range variants {
			dyn := make(map[pattern.Pattern]bool)
			for _, p := range results[i*len(variants)+j].Report.PatternSet() {
				dyn[p] = true
			}
			st := static[w.Name][v]
			row := XValRow{Program: w.Name, Variant: v, StaticFindings: counts[w.Name][v]}
			for _, p := range XValPatterns() {
				switch {
				case st[p] && dyn[p]:
					row.Confirmed = append(row.Confirmed, p)
				case dyn[p]:
					row.DynamicOnly = append(row.DynamicOnly, p)
				case st[p]:
					row.StaticOnly = append(row.StaticOnly, p)
				}
			}
			seenUC := make(map[string]bool)
			for _, f := range results[i*len(variants)+j].Report.Findings {
				if f.Pattern != pattern.UncoalescedAccess || f.AtKernel == "" || seenUC[f.AtKernel] {
					continue
				}
				seenUC[f.AtKernel] = true
				if strideWaste[f.AtKernel] {
					row.UCConfirmed = append(row.UCConfirmed, f.AtKernel)
				} else {
					row.UCUnexplained = append(row.UCUnexplained, f.AtKernel)
				}
			}
			sort.Strings(row.UCConfirmed)
			sort.Strings(row.UCUnexplained)
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Agreement returns the naive-variant recall: of the dynamically detected
// statically-decidable patterns, the fraction the advisor confirmed.
func (r *XValReport) Agreement() float64 {
	confirmed, dynamic := 0, 0
	for _, row := range r.Rows {
		if row.Variant != workloads.VariantNaive {
			continue
		}
		confirmed += len(row.Confirmed)
		dynamic += len(row.Confirmed) + len(row.DynamicOnly)
	}
	if dynamic == 0 {
		return 1
	}
	return float64(confirmed) / float64(dynamic)
}

// UCAgreement returns the uncoalesced-access cross-check totals: how many
// dynamically flagged kernels the stride analyzer confirmed, out of all
// dynamically flagged kernels (across all rows and variants).
func (r *XValReport) UCAgreement() (confirmed, total int) {
	for _, row := range r.Rows {
		confirmed += len(row.UCConfirmed)
		total += len(row.UCConfirmed) + len(row.UCUnexplained)
	}
	return confirmed, total
}

// StaticOnly returns the total static-only pattern count for the variant.
func (r *XValReport) StaticOnly(v workloads.Variant) int {
	n := 0
	for _, row := range r.Rows {
		if row.Variant == v {
			n += len(row.StaticOnly)
		}
	}
	return n
}

// Gate enforces the advisor's acceptance bar: naive-variant agreement at
// least minAgreement, and zero static-only findings on optimized variants
// (no false positives on clean code).
func (r *XValReport) Gate(minAgreement float64) error {
	var problems []string
	if a := r.Agreement(); a < minAgreement {
		problems = append(problems, fmt.Sprintf("naive agreement %.1f%% below %.1f%%", a*100, minAgreement*100))
	}
	if n := r.StaticOnly(workloads.VariantOptimized); n > 0 {
		problems = append(problems, fmt.Sprintf("%d static-only finding(s) on optimized variants", n))
	}
	if problems != nil {
		return fmt.Errorf("tables: cross-validation gate: %s", strings.Join(problems, "; "))
	}
	return nil
}

// RenderXVal writes the agreement table.
func RenderXVal(w io.Writer, r *XValReport) {
	abbrevs := func(ps []pattern.Pattern) string {
		if len(ps) == 0 {
			return "-"
		}
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Abbrev()
		}
		return strings.Join(out, ",")
	}
	fmt.Fprintf(w, "Cross-validation: static advisor vs dynamic profiler (%s)\n", abbrevs(XValPatterns()))
	fmt.Fprintf(w, "%-24s %-10s %-12s %-13s %-12s %s\n",
		"PROGRAM", "VARIANT", "CONFIRMED", "DYNAMIC-ONLY", "STATIC-ONLY", "FINDINGS")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %-10s %-12s %-13s %-12s %8d\n",
			row.Program, row.Variant, abbrevs(row.Confirmed), abbrevs(row.DynamicOnly),
			abbrevs(row.StaticOnly), row.StaticFindings)
	}
	fmt.Fprintf(w, "\nnaive agreement: %.1f%%   static-only on optimized: %d\n",
		r.Agreement()*100, r.StaticOnly(workloads.VariantOptimized))
	ucConfirmed, ucTotal := r.UCAgreement()
	fmt.Fprintf(w, "uncoalesced-access kernels confirmed by static stride analysis: %d/%d\n",
		ucConfirmed, ucTotal)
	for _, row := range r.Rows {
		for _, k := range row.UCUnexplained {
			fmt.Fprintf(w, "  unexplained: %s %s kernel %q (no statically strided/irregular loop)\n",
				row.Program, row.Variant, k)
		}
	}
}
