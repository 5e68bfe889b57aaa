// Command drgpum-staticadv is the static kernel advisor of DESIGN.md
// "Static kernel advisor": it detects DrGPUM inefficiency patterns —
// dead stores, unused allocations, early-allocation/late-free lifetimes,
// redundant copies — in workload source without executing anything, and
// cross-validates itself against the dynamic profiler.
//
// Usage:
//
//	drgpum-staticadv [flags] [packages...]
//
//	-workloads      per-workload findings over the bundled workload package
//	-stride         kernel-loop stride classification report
//	-xval           cross-validation table vs the dynamic profiler
//	-gate           with -xval: enforce the agreement gate (>=80% naive
//	                agreement, zero static-only findings on optimized)
//	-json           machine-readable output (one JSON object per line)
//	-only a,b       restrict to the named analyzers
//	-loadstats      print loader-cache statistics to stderr on exit
//	-list           list analyzers and exit
//
// The report modes combine: `-workloads -stride -xval -gate` runs the
// advisor sweep, the stride classifier and the cross-validation harness
// in one process, where the internal/lint loader cache hands all three
// suites the same loaded workloads package — `go list -export` and the
// typecheck run once instead of once per suite (-loadstats prints the
// measured saving). When -xval is present the gate alone decides the
// exit status; the sweep output is informational.
//
// Default mode analyzes the named packages (default ./...) under both
// variant assumptions and prints the merged findings. Exit status is 0
// when clean, 1 with findings (or a failed gate), 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/lint"
	"drgpum/internal/staticadv"
	"drgpum/internal/tables"
)

func main() {
	workloadsMode := flag.Bool("workloads", false, "analyze the bundled workloads package, one section per workload and variant")
	stride := flag.Bool("stride", false, "print the kernel-loop stride classification report")
	xval := flag.Bool("xval", false, "cross-validate static findings against the dynamic profiler")
	gate := flag.Bool("gate", false, "with -xval: fail unless the agreement gate passes")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding")
	only := flag.String("only", "", "comma-separated analyzer names to keep (default: all)")
	loadstats := flag.Bool("loadstats", false, "print loader-cache statistics to stderr on exit")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range staticadv.Suite() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	status := 0
	if *workloadsMode || *stride || *xval {
		// Report modes share one process so the loader cache hands every
		// suite the same loaded workloads package: the sweep, the stride
		// classifier and the cross-validation harness each call
		// lint.Load, but only the first pays for go list + typecheck.
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"drgpum/internal/workloads"}
		}
		n := 0
		if *workloadsMode || *stride {
			pkgs, err := lint.Load(patterns...)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			keep := keepSet(*only)
			if *workloadsMode {
				for _, pkg := range pkgs {
					n += printWorkloads(pkg, keep, *jsonOut)
				}
			}
			if *stride {
				runStride(pkgs, *jsonOut)
			}
		}
		switch {
		case *xval:
			// The gate alone decides combined-run exit status: the sweep
			// legitimately reports the naive variants' inefficiencies.
			if err := runXVal(*gate, *jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				status = 1
			}
		case n > 0:
			fmt.Fprintf(os.Stderr, "drgpum-staticadv: %d finding(s)\n", n)
			status = 1
		}
		finish(*loadstats, status)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	keep := keepSet(*only)
	n := 0
	for _, pkg := range pkgs {
		for _, f := range staticadv.AnalyzeBoth(pkg) {
			if keep != nil && !keep[f.Analyzer] {
				continue
			}
			printFinding(f, *jsonOut)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "drgpum-staticadv: %d finding(s)\n", n)
		status = 1
	}
	finish(*loadstats, status)
}

// finish optionally prints the loader-cache counters, then exits.
func finish(loadstats bool, status int) {
	if loadstats {
		s := lint.LoadStatsSnapshot()
		var saved time.Duration
		if s.Loads > 0 {
			saved = time.Duration(int64(s.LoadWall) / int64(s.Loads) * int64(s.Hits))
		}
		fmt.Fprintf(os.Stderr, "loader cache: %d load(s) in %s, %d hit(s) (~%s of re-listing and re-typechecking avoided)\n",
			s.Loads, s.LoadWall.Round(time.Millisecond), s.Hits, saved.Round(time.Millisecond))
	}
	os.Exit(status)
}

// keepSet parses the -only filter ("" keeps everything).
func keepSet(only string) map[string]bool {
	if only == "" {
		return nil
	}
	out := make(map[string]bool)
	for _, n := range strings.Split(only, ",") {
		out[strings.TrimSpace(n)] = true
	}
	return out
}

// printFinding renders one finding as text or JSON.
func printFinding(f staticadv.Finding, jsonOut bool) {
	if !jsonOut {
		fmt.Println(f)
		return
	}
	enc, _ := json.Marshal(map[string]any{
		"id":       f.Pattern.ID(),
		"severity": f.Severity().String(),
		"file":     f.Pos.Filename,
		"line":     f.Pos.Line,
		"col":      f.Pos.Column,
		"analyzer": f.Analyzer,
		"pattern":  f.Pattern.Abbrev(),
		"object":   f.Object,
		"message":  f.Message,
	})
	fmt.Println(string(enc))
}

// printWorkloads renders the per-workload finding sections.
func printWorkloads(pkg *lint.Package, keep map[string]bool, jsonOut bool) int {
	n := 0
	for _, v := range []staticadv.Variant{staticadv.VariantNaive, staticadv.VariantOptimized} {
		for _, wf := range staticadv.AnalyzeWorkloads(pkg, v) {
			var kept []staticadv.Finding
			for _, f := range wf.Findings {
				if keep != nil && !keep[f.Analyzer] {
					continue
				}
				kept = append(kept, f)
			}
			if !jsonOut {
				fmt.Printf("== %s (%s): %d finding(s)\n", wf.Workload, wf.Variant, len(kept))
			}
			for _, f := range kept {
				if jsonOut {
					enc, _ := json.Marshal(map[string]any{
						"id":       f.Pattern.ID(),
						"severity": f.Severity().String(),
						"workload": wf.Workload,
						"variant":  wf.Variant.String(),
						"file":     f.Pos.Filename,
						"line":     f.Pos.Line,
						"analyzer": f.Analyzer,
						"pattern":  f.Pattern.Abbrev(),
						"object":   f.Object,
						"message":  f.Message,
					})
					fmt.Println(string(enc))
				} else {
					fmt.Printf("   %s\n", f)
				}
				n++
			}
		}
	}
	return n
}

// runStride prints the stride report for the loaded packages.
func runStride(pkgs []*lint.Package, jsonOut bool) {
	for _, pkg := range pkgs {
		for _, l := range staticadv.StrideReport(pkg) {
			if jsonOut {
				enc, _ := json.Marshal(map[string]any{
					"file":      l.Pos.Filename,
					"line":      l.Pos.Line,
					"kernel":    l.Kernel,
					"depth":     l.Depth,
					"class":     l.Class.String(),
					"unit":      l.Unit,
					"strided":   l.Strided,
					"irregular": l.Irregular,
				})
				fmt.Println(string(enc))
			} else {
				fmt.Println(l)
			}
		}
	}
}

// runXVal builds and prints the cross-validation table, optionally
// enforcing the gate; a gate failure is returned, not fatal.
func runXVal(gate, jsonOut bool) error {
	rep, err := tables.CrossValidate(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if jsonOut {
		for _, row := range rep.Rows {
			enc, _ := json.Marshal(map[string]any{
				"program":        row.Program,
				"variant":        row.Variant.String(),
				"confirmed":      abbrevs(row.Confirmed),
				"dynamic_only":   abbrevs(row.DynamicOnly),
				"static_only":    abbrevs(row.StaticOnly),
				"findings":       row.StaticFindings,
				"uc_confirmed":   row.UCConfirmed,
				"uc_unexplained": row.UCUnexplained,
			})
			fmt.Println(string(enc))
		}
	} else {
		tables.RenderXVal(os.Stdout, rep)
	}
	if gate {
		return rep.Gate(0.8)
	}
	return nil
}

func abbrevs[T interface{ Abbrev() string }](ps []T) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Abbrev()
	}
	return out
}
