// Command drgpum-tables regenerates the paper's Table 1 (pattern matrix),
// Table 4 (peak-memory reductions and speedups) and Table 5 (DrGPUM vs
// the ValueExpert and Compute Sanitizer baselines) from the
// re-implemented workloads, on one engine.
//
// Usage:
//
//	drgpum-tables [-table 1|4|5|all] [-o dir] [-j N] [-stats]
//
// -j 1 runs every profile in submission order on one goroutine; the
// output is byte-identical at any -j.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-tables: ")
	which := flag.String("table", "all", "which table to regenerate: 1, 4, 5 or all")
	outDir := flag.String("o", "", "also write artifact-style result files (patterns.txt, memory_peak.txt) into this directory")
	jobs := flag.Int("j", 0, "max concurrent runs (0 = GOMAXPROCS, 1 = in submission order; output is byte-identical either way)")
	stats := flag.Bool("stats", false, "print the engine's aggregated self-observability (phases with wall time, counters) after the tables")
	flag.Parse()
	if *which != "1" && *which != "4" && *which != "5" && *which != "all" {
		log.Fatalf("unknown -table %q (want 1, 4, 5 or all)", *which)
	}
	if *which == "5" && *outDir != "" {
		log.Fatal("-o writes Tables 1 and 4 only; it does not apply to -table 5")
	}

	var master *obs.Recorder
	if *stats {
		master = obs.New()
	}
	eng := engine.New(engine.Config{Workers: *jobs, Obs: master})

	results := func(name string, render func(w *os.File)) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			log.Fatal(err)
		}
		render(f)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", filepath.Join(*outDir, name))
	}

	if *which == "1" || *which == "all" {
		rows, err := tables.Table1(eng, gpu.SpecRTX3090())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 1: patterns of memory inefficiencies found in the workloads")
		tables.RenderTable1(os.Stdout, rows)
		fmt.Println()
		results("patterns.txt", func(w *os.File) { tables.RenderTable1(w, rows) })
	}
	if *which == "4" || *which == "all" {
		rows, err := tables.Table4(eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 4: peak memory reductions and speedups guided by DrGPUM")
		tables.RenderTable4(os.Stdout, rows)
		results("memory_peak.txt", func(w *os.File) { tables.RenderTable4(w, rows) })
	}
	if *which == "5" || *which == "all" {
		rows, err := tables.Table5(eng, gpu.SpecRTX3090())
		if err != nil {
			log.Fatal(err)
		}
		if *which == "all" {
			fmt.Println()
		}
		fmt.Println("Table 5: DrGPUM vs state-of-the-art tools")
		tables.RenderTable5(os.Stdout, rows)
	}
	if *stats {
		fmt.Println()
		master.Snapshot().WriteText(os.Stdout, true)
	}
}
