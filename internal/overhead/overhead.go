// Package overhead regenerates the paper's Figure 6: DrGPUM's runtime
// overhead per workload, for object-level and intra-object analysis, on
// both device configurations.
//
// Overhead is measured exactly as the paper defines it — the ratio of a
// program's execution time with DrGPUM enabled to its native execution
// time — using host wall-clock time of the Go process. The instrumentation
// work (API interception, call-path unwinding, hit-flag maintenance,
// access-map updates) is real even though the GPU is simulated, so the
// *shape* of the figure (object-level cheap, intra-object several-fold,
// access-heavy programs worst) reproduces; absolute magnitudes naturally
// differ from the authors' CUDA testbed.
//
// Matching the paper's methodology (Figure 6 caption): object-level
// analysis monitors all GPU APIs without sampling; intra-object analysis
// monitors the workload's largest-footprint kernels with a sampling period
// of 100.
package overhead

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/workloads"
)

// Row is one workload's overhead on one device spec.
type Row struct {
	Program string
	Device  string
	// NativeNs, ObjectNs and IntraNs are median wall-clock runtimes.
	NativeNs int64
	ObjectNs int64
	IntraNs  int64
	// ObjectOverhead and IntraOverhead are the Figure 6 ratios.
	ObjectOverhead float64
	IntraOverhead  float64
}

// Summary aggregates one device's column the way the paper reports it.
type Summary struct {
	Device        string
	ObjectMedian  float64
	ObjectGeomean float64
	IntraMedian   float64
	IntraGeomean  float64
}

// Options configures a measurement run.
type Options struct {
	// Repeats is the number of runs per configuration; the median is kept
	// (the paper averages 10 runs; the median is more robust at small
	// counts). Zero means 3.
	Repeats int
	// SamplingPeriod is the intra-object kernel sampling period (paper:
	// 100). Zero means 100.
	SamplingPeriod int
	// Workloads restricts measurement to the named workloads, in the given
	// order. Empty means the full registry (the paper's figure).
	Workloads []string
}

// selectWorkloads resolves the Options.Workloads filter against the
// registry (unregistered extras included).
func selectWorkloads(names []string) ([]*workloads.Workload, error) {
	if len(names) == 0 {
		return workloads.All(), nil
	}
	ws := make([]*workloads.Workload, 0, len(names))
	for _, name := range names {
		w, ok := workloads.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// medianOf returns the median of the measured durations (the upper
// middle element, matching the pre-engine measurement loop).
func medianOf(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// stages are the three patch levels of the figure, in column order.
var stages = []struct {
	name  string
	level gpu.PatchLevel
}{
	{"native", gpu.PatchNone},
	{"object-level", gpu.PatchAPI},
	{"intra-object", gpu.PatchFull},
}

// Measure produces the Figure 6 rows for the given device specs. Every
// run here is a wall-clock measurement, so each must really execute, and
// execute alone. Each repeat is therefore one round over every (device,
// workload, stage) tuple on a fresh one-worker engine: the empty cache
// makes every run execute, and the single worker runs them in
// submission order on the calling goroutine. rec, when enabled, is the
// master self-observability recorder of every round's engine.
func Measure(rec *obs.Recorder, specs []gpu.DeviceSpec, opts Options) ([]Row, error) {
	if opts.Repeats <= 0 {
		opts.Repeats = 3
	}
	if opts.SamplingPeriod <= 0 {
		opts.SamplingPeriod = 100
	}
	ws, err := selectWorkloads(opts.Workloads)
	if err != nil {
		return nil, err
	}
	var rs []engine.RunSpec
	for _, spec := range specs {
		for _, w := range ws {
			for _, st := range stages {
				mode := engine.ModeProfile
				sampling := 0
				if st.level == gpu.PatchNone {
					mode = engine.ModeNative
				} else if st.level == gpu.PatchFull {
					sampling = opts.SamplingPeriod
				}
				rs = append(rs, engine.RunSpec{
					Mode:     mode,
					Workload: w,
					Spec:     spec,
					Variant:  workloads.VariantNaive,
					Level:    st.level,
					Sampling: sampling,
				})
			}
		}
	}
	walls := make([][]time.Duration, len(rs))
	for r := 0; r < opts.Repeats; r++ {
		results, _ := engine.New(engine.Config{Workers: 1, Obs: rec}).Run(rs)
		for i, res := range results {
			if res.Err != nil {
				return nil, fmt.Errorf("%s: %w", stages[i%len(stages)].name, res.Err)
			}
			walls[i] = append(walls[i], res.Wall)
		}
	}

	var rows []Row
	for i := 0; i < len(rs); i += len(stages) {
		row := Row{
			Program:  rs[i].Workload.Name,
			Device:   rs[i].Spec.Name,
			NativeNs: medianOf(walls[i]).Nanoseconds(),
			ObjectNs: medianOf(walls[i+1]).Nanoseconds(),
			IntraNs:  medianOf(walls[i+2]).Nanoseconds(),
		}
		if row.NativeNs > 0 {
			row.ObjectOverhead = float64(row.ObjectNs) / float64(row.NativeNs)
			row.IntraOverhead = float64(row.IntraNs) / float64(row.NativeNs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Summarize computes the per-device medians and geometric means the paper
// quotes for Figure 6.
func Summarize(rows []Row) []Summary {
	byDevice := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byDevice[r.Device]; !ok {
			order = append(order, r.Device)
		}
		byDevice[r.Device] = append(byDevice[r.Device], r)
	}
	var out []Summary
	for _, dev := range order {
		rs := byDevice[dev]
		obj := make([]float64, len(rs))
		intra := make([]float64, len(rs))
		for i, r := range rs {
			obj[i] = r.ObjectOverhead
			intra[i] = r.IntraOverhead
		}
		out = append(out, Summary{
			Device:        dev,
			ObjectMedian:  median(obj),
			ObjectGeomean: geomean(obj),
			IntraMedian:   median(intra),
			IntraGeomean:  geomean(intra),
		})
	}
	return out
}

// median returns the middle value (mean of middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Render prints the figure as a table plus the paper-style summary lines.
func Render(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-24s %-10s %12s %12s %12s %10s %10s\n",
		"Program", "Device", "native", "object", "intra", "obj ovh", "intra ovh")
	fmt.Fprintln(w, strings.Repeat("-", 98))
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %-10s %10dus %10dus %10dus %9.2fx %9.2fx\n",
			r.Program, r.Device, r.NativeNs/1000, r.ObjectNs/1000, r.IntraNs/1000,
			r.ObjectOverhead, r.IntraOverhead)
	}
	fmt.Fprintln(w)
	for _, s := range Summarize(rows) {
		fmt.Fprintf(w, "%s: object-level median %.2fx geomean %.2fx; intra-object median %.2fx geomean %.2fx\n",
			s.Device, s.ObjectMedian, s.ObjectGeomean, s.IntraMedian, s.IntraGeomean)
	}
}
