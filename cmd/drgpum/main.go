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
//	       [-stream] [-window N] [-heatmap]
//	       [-json] [-verbose] [-timeline] [-memcheck] [-stats]
//	       [-gui liveness.json] [-html report.html] [-save profile.json]
//	drgpum -workload polybench/2mm -diff [-device D] [-mode M] [-sampling N]
//	       [-stream] [-window N] [-memcheck]
//	drgpum -workload memcheck/knownbad -memcheck
//	drgpum -workload simplemulticopy -gui liveness.json   # Figure 7
//	drgpum -load profile.json [-ti 4] [-ra-tolerance 0.10] [-peaks 2]
//	       [-json] [-verbose] [-timeline] [-gui liveness.json] [-html report.html]
//	drgpum -load optimized.json -baseline naive.json [-ti 4] [-ra-tolerance 0.10] [-peaks 2]
//	drgpum -list
//
// A flag the chosen form does not read is an error, not ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	_ "drgpum/internal/gui" // registers the GUI and HTML exporters
	"drgpum/internal/obs"
	"drgpum/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum: ")

	var (
		workload = flag.String("workload", "", "workload to profile (see -list)")
		variant  = flag.String("variant", "naive", "naive or optimized")
		device   = flag.String("device", "rtx3090", "rtx3090 or a100")
		mode     = flag.String("mode", "intra", "analysis granularity: object or intra")
		sampling = flag.Int("sampling", 1, "intra-object kernel sampling period (0 or 1 = every launch)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		guiPath  = flag.String("gui", "", "write a Perfetto trace (liveness.json) to this path")
		htmlPath = flag.String("html", "", "write a self-contained HTML report to this path")
		savePath = flag.String("save", "", "save the profile for offline re-analysis (drgpum -load)")
		verbose  = flag.Bool("verbose", false, "include call paths and peak object lists")
		list     = flag.Bool("list", false, "list available workloads and exit")
		memcheck = flag.Bool("memcheck", false, "attach the memory-safety checker (OOB, use-after-free, uninitialized reads, leaks)")
		stats    = flag.Bool("stats", false, "enable self-observability and print the profiler's own phase/counter summary after the report")
		diff     = flag.Bool("diff", false, "profile both variants and summarize the optimization outcome")
		timeline = flag.Bool("timeline", false, "draw the object-lifetime timeline (the paper's Figure 2 view) after the report")
		stream   = flag.Bool("stream", false, "stream the analysis: finalize per kernel-epoch with bounded collector memory (same report, plus a temporal heat map)")
		window   = flag.Int("window", 0, "streaming kernel-epoch length (0 = default; requires -stream or -heatmap)")
		heatmap  = flag.Bool("heatmap", false, "draw the temporal heat map after the report (implies -stream)")
		loadPath = flag.String("load", "", "re-analyze this saved profile instead of running a workload")
		baseline = flag.String("baseline", "", "with -load: compare the loaded profile (the candidate) against this saved profile")
		ti       = flag.Int("ti", 4, "with -load: temporary-idleness threshold (intervening GPU APIs)")
		raTol    = flag.Float64("ra-tolerance", 0.10, "with -load: redundant-allocation size tolerance (fraction)")
		peaks    = flag.Int("peaks", 2, "with -load: memory peaks to report")
	)
	flag.Parse()

	path := "a workload run"
	switch {
	case *list:
		path = "-list"
	case *loadPath != "" && *baseline != "":
		path = "-load with -baseline"
	case *loadPath != "":
		path = "-load"
	case *diff:
		path = "-diff"
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(pathFlags[path]), f.Name) {
			log.Fatalf("-%s does not apply to %s", f.Name, path)
		}
	})
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
	if *heatmap {
		*stream = true
	}
	spec, err := engine.Request{
		Workload:  *workload,
		Variant:   *variant,
		Device:    *device,
		Mode:      *mode,
		Sampling:  *sampling,
		Streaming: *stream,
		Window:    *window,
		Memcheck:  *memcheck,
	}.Spec()
	if errors.Is(err, engine.ErrUnknownWorkload) {
		log.Fatalf("%v; use -list to see the available ones", err)
	} else if err != nil {
		log.Fatal(err)
	}

	// -stats runs on a private engine with a master recorder; the report
	// carries its own run-local snapshot.
	eng := engine.Default()
	if *stats {
		eng = engine.New(engine.Config{Obs: obs.New()})
	}
	if *diff {
		runDiff(eng, spec)
		return
	}
	res, err := eng.Run([]engine.RunSpec{spec})
	if err != nil {
		log.Fatal(err)
	}
	output(res[0].Report, outputs{json: *jsonOut, verbose: *verbose, timeline: *timeline, heatmap: *heatmap,
		stats: *stats, gui: *guiPath, html: *htmlPath, save: *savePath})
}

// pathFlags names the flags each of drgpum's paths reads.
var pathFlags = map[string]string{
	"a workload run": "workload variant device mode sampling stream window heatmap memcheck " +
		"json verbose timeline stats gui html save",
	"-diff":                "diff workload device mode sampling stream window memcheck",
	"-load":                "load ti ra-tolerance peaks json verbose timeline gui html save",
	"-load with -baseline": "load baseline ti ra-tolerance peaks",
	"-list":                "list",
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

// runDiff profiles the naive and optimized variants of spec in one batch
// and prints the paper's Table 4 view for one workload: peak reduction,
// speedup, and which findings the fixes eliminated.
func runDiff(eng *engine.Engine, spec engine.RunSpec) {
	opt := spec
	spec.Variant, opt.Variant = workloads.VariantNaive, workloads.VariantOptimized
	res, err := eng.Run([]engine.RunSpec{spec, opt})
	if err != nil {
		log.Fatal(err)
	}
	naive := res[0].Report
	fmt.Printf("%s on %s\n", spec.Workload.Name, spec.Spec.Name)
	if naive.WhatIf.EstimatedPeak < naive.WhatIf.OriginalPeak {
		fmt.Printf("  advisor predicted: -%.0f%% peak from applying the suggestions\n",
			naive.WhatIf.ReductionPct)
	}
	core.Compare(naive, res[1].Report).Render(os.Stdout)
}
