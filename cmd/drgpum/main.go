// Command drgpum profiles one of the bundled workloads on the simulated
// GPU and reports the detected memory inefficiencies, reproducing the
// DrGPUM end-user workflow: run, inspect ranked findings with call paths
// and suggestions, optionally export the Perfetto GUI trace. It also
// re-analyzes a saved profile (-load), optionally under different detector
// thresholds or against a baseline profile — the persistent form of the
// paper's online-collector/offline-analyzer split.
//
// Usage:
//
//	drgpum -workload rodinia/huffman [-variant naive|optimized]
//	       [-device rtx3090|a100] [-mode object|intra] [-sampling N]
//	       [-stream] [-window N] [-heatmap] [-pipelined]
//	       [-json] [-verbose] [-timeline] [-memcheck] [-stats]
//	       [-gui liveness.json] [-html report.html] [-save profile.json]
//	drgpum -workload polybench/2mm -diff
//	drgpum -workload memcheck/knownbad -memcheck
//	drgpum -workload simplemulticopy -gui liveness.json   # Figure 7
//	drgpum -load profile.json [-ti 4] [-ra-tolerance 0.10] [-peaks 2]
//	       [-json] [-verbose] [-timeline] [-gui liveness.json] [-html report.html]
//	drgpum -load optimized.json -baseline naive.json
//	drgpum -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	_ "drgpum/internal/gui" // registers the GUI and HTML exporters
	"drgpum/internal/obs"
	"drgpum/internal/tables"
	"drgpum/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum: ")

	var (
		workload  = flag.String("workload", "", "workload to profile (see -list)")
		variant   = flag.String("variant", "naive", "naive or optimized")
		device    = flag.String("device", "rtx3090", "rtx3090 or a100")
		mode      = flag.String("mode", "intra", "analysis granularity: object or intra")
		sampling  = flag.Int("sampling", 1, "intra-object kernel sampling period")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		guiPath   = flag.String("gui", "", "write a Perfetto trace (liveness.json) to this path")
		htmlPath  = flag.String("html", "", "write a self-contained HTML report to this path")
		savePath  = flag.String("save", "", "save the profile for offline re-analysis (drgpum -load)")
		verbose   = flag.Bool("verbose", false, "include call paths and peak object lists")
		list      = flag.Bool("list", false, "list available workloads and exit")
		memcheck  = flag.Bool("memcheck", false, "attach the memory-safety checker (OOB, use-after-free, uninitialized reads, leaks)")
		stats     = flag.Bool("stats", false, "enable self-observability and print the profiler's own phase/counter summary after the report")
		diff      = flag.Bool("diff", false, "profile both variants and summarize the optimization outcome")
		timeline  = flag.Bool("timeline", false, "draw the object-lifetime timeline (the paper's Figure 2 view) after the report")
		stream    = flag.Bool("stream", false, "stream the analysis: finalize per kernel-epoch with bounded collector memory (same report, plus a temporal heat map)")
		window    = flag.Int("window", 0, "streaming kernel-epoch length (0 = default)")
		heatmap   = flag.Bool("heatmap", false, "draw the temporal heat map after the report (implies -stream)")
		pipelined = flag.Bool("pipelined", false, "pipeline the run: simulate on one goroutine while another ingests the access stream (identical report, lower wall clock on a free core)")
		loadPath  = flag.String("load", "", "re-analyze this saved profile instead of running a workload")
		baseline  = flag.String("baseline", "", "with -load: compare the loaded profile (the candidate) against this saved profile")
		ti        = flag.Int("ti", 4, "with -load: temporary-idleness threshold (intervening GPU APIs)")
		raTol     = flag.Float64("ra-tolerance", 0.10, "with -load: redundant-allocation size tolerance (fraction)")
		peaks     = flag.Int("peaks", 2, "with -load: memory peaks to report")
	)
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		for _, x := range workloads.Extras() {
			fmt.Println(x.Name)
		}
		return
	}
	if *loadPath != "" {
		cfg := core.DefaultConfig()
		cfg.ObjLevel.IdlenessThreshold = *ti
		cfg.ObjLevel.RedundantSizeTolerance = *raTol
		cfg.TopPeaks = *peaks
		rep := loadProfile(*loadPath, cfg)
		if *baseline != "" {
			fmt.Printf("%s vs baseline %s\n", *loadPath, *baseline)
			core.Compare(loadProfile(*baseline, cfg), rep).Render(os.Stdout)
			return
		}
		output(rep, outputs{json: *jsonOut, verbose: *verbose, timeline: *timeline,
			gui: *guiPath, html: *htmlPath, save: *savePath})
		return
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "baseline", "ti", "ra-tolerance", "peaks":
			log.Fatalf("-%s applies to a saved profile; use it with -load", f.Name)
		}
	})

	w, ok := workloads.Lookup(*workload)
	if !ok {
		log.Fatalf("unknown workload %q; use -list to see the available ones", *workload)
	}

	var spec gpu.DeviceSpec
	switch strings.ToLower(*device) {
	case "rtx3090":
		spec = gpu.SpecRTX3090()
	case "a100":
		spec = gpu.SpecA100()
	default:
		log.Fatalf("unknown device %q (want rtx3090 or a100)", *device)
	}

	var v workloads.Variant
	switch strings.ToLower(*variant) {
	case "naive":
		v = workloads.VariantNaive
	case "optimized":
		v = workloads.VariantOptimized
	default:
		log.Fatalf("unknown variant %q (want naive or optimized)", *variant)
	}

	level := gpu.PatchFull
	switch strings.ToLower(*mode) {
	case "object":
		level = gpu.PatchAPI
	case "intra":
		level = gpu.PatchFull
	default:
		log.Fatalf("unknown mode %q (want object or intra)", *mode)
	}

	if *heatmap {
		*stream = true
	}
	if *diff {
		runDiff(w, spec, level, *sampling)
		return
	}

	var rep *core.Report
	var err error
	if *stats {
		// Self-observability runs on a private engine with a master
		// recorder; the report carries its own run-local snapshot.
		res, rerr := engine.New(engine.Config{Obs: obs.New()}).Run([]engine.RunSpec{{
			Workload:  w,
			Spec:      spec,
			Variant:   v,
			Level:     level,
			Sampling:  *sampling,
			Streaming: *stream,
			Window:    *window,
			Pipelined: *pipelined,
			Opts:      engine.RunOpts{Memcheck: *memcheck},
		}})
		if rerr != nil {
			log.Fatal(rerr)
		}
		rep = res[0].Report
	} else {
		rep, err = tables.ProfileWith(w, spec, v, level, *sampling,
			tables.ProfileOpts{Memcheck: *memcheck, Stream: *stream, Window: *window, Pipelined: *pipelined})
		if err != nil {
			log.Fatal(err)
		}
	}

	output(rep, outputs{json: *jsonOut, verbose: *verbose, timeline: *timeline, heatmap: *heatmap,
		stats: *stats, gui: *guiPath, html: *htmlPath, save: *savePath})
}

// outputs selects what output prints and which files it writes.
type outputs struct {
	json, verbose, timeline, heatmap, stats bool
	gui, html, save                         string
}

// output prints the report — JSON, or the text report with the requested
// views after it — and writes each requested export file.
func output(rep *core.Report, o outputs) {
	if o.json {
		data, err := rep.MarshalJSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		rep.Render(os.Stdout, o.verbose)
		if o.timeline {
			fmt.Println()
			rep.RenderTimeline(os.Stdout)
		}
		if o.heatmap {
			fmt.Println()
			rep.RenderHeatMap(os.Stdout)
		}
		if o.stats {
			fmt.Println()
			if err := rep.Export(os.Stdout, core.FormatStats); err != nil {
				log.Fatal(err)
			}
		}
	}

	for _, file := range []struct {
		path string
		f    core.Format
		note string
	}{
		{o.gui, core.FormatGUI, ` — open it at https://ui.perfetto.dev via "Open trace file"`},
		{o.html, core.FormatHTML, ""},
		{o.save, core.FormatProfile, " — re-analyze with drgpum -load " + o.save},
	} {
		if file.path == "" {
			continue
		}
		f, err := os.Create(file.path)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Export(f, file.f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s%s\n", file.path, file.note)
	}
}

// loadProfile re-analyzes a saved profile under cfg.
func loadProfile(path string, cfg core.Config) *core.Report {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rep, err := core.AnalyzeProfile(f, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

// runDiff profiles the naive and optimized variants and prints the paper's
// Table 4 view for one workload: peak reduction, speedup, and which
// findings the fixes eliminated.
func runDiff(w *workloads.Workload, spec gpu.DeviceSpec, level gpu.PatchLevel, sampling int) {
	naive, err := tables.Profile(w, spec, workloads.VariantNaive, level, sampling)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := tables.Profile(w, spec, workloads.VariantOptimized, level, sampling)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s\n", w.Name, spec.Name)
	if naive.WhatIf.EstimatedPeak < naive.WhatIf.OriginalPeak {
		fmt.Printf("  advisor predicted: -%.0f%% peak from applying the suggestions\n",
			naive.WhatIf.ReductionPct)
	}
	core.Compare(naive, opt).Render(os.Stdout)
}
