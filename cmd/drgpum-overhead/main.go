// Command drgpum-overhead regenerates the paper's Figure 6: DrGPUM's
// profiling overhead per workload for object-level and intra-object
// analysis on the RTX 3090 and A100 device configurations.
//
// Usage:
//
//	drgpum-overhead [-repeats N] [-sampling N] [-workloads a,b,...] [-svg out.svg] [-stats]
//
// Overhead runs measure wall clock, so every run executes, one at a time:
// each repeat is one round over every (device, workload, stage) tuple on
// a fresh one-worker engine.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/overhead"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-overhead: ")
	repeats := flag.Int("repeats", 3, "runs per configuration (median kept)")
	sampling := flag.Int("sampling", 100, "intra-object kernel sampling period")
	only := flag.String("workloads", "", "comma-separated workload names to measure (default: all)")
	svgPath := flag.String("svg", "", "also write the figure as an SVG bar chart (the artifact's overhead.pdf analog)")
	stats := flag.Bool("stats", false, "print the per-phase self-time breakdown (attach, ingestion, each analyzer) aggregated over every measured run")
	flag.Parse()

	var names []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}

	var master *obs.Recorder
	if *stats {
		master = obs.New()
	}
	rows, err := overhead.Measure(
		master,
		[]gpu.DeviceSpec{gpu.SpecRTX3090(), gpu.SpecA100()},
		overhead.Options{Repeats: *repeats, SamplingPeriod: *sampling, Workloads: names},
	)
	if err != nil {
		log.Fatal(err)
	}
	overhead.Render(os.Stdout, rows)
	if *stats {
		fmt.Println()
		master.Snapshot().WriteText(os.Stdout, true)
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := overhead.RenderSVG(f, rows); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *svgPath)
	}
}
