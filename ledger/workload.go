package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// workloadNames are the benchmark workloads in the order -workload all
// runs them. The package comment says why each one exists.
var workloadNames = []string{"intra", "object", "intra-pipelined", "stream-train"}

// Stream-train shape: the loop length, the streaming window, and the
// activation sizes (in KiB-floats) and access strides (in floats) an
// epoch can have.
const (
	trainEpochs = 256
	trainWindow = 8
)

var (
	trainKFloats = []int{4, 5, 6, 7}
	trainStrides = []int{4, 8}
)

// program is one profiled unit of a workload: a Table 1 program, or the
// seed-generated training loop. want is the fingerprint every profile of
// it must reproduce.
type program struct {
	name string
	run  func(dev *gpu.Device, host workloads.Host) error
	cfg  core.Config
	want fingerprint
	// reps is how many native and how many profiled runs one timed
	// sample takes, so that no sample is shorter than minSample.
	reps int
}

// A sample of a program that runs in a fraction of a millisecond is
// mostly timer and scheduler noise, so one sample repeats such a program
// until its native side lasts at least minSample, up to maxReps runs.
const (
	minSample = 3 * time.Millisecond
	maxReps   = 64
)

// fingerprint is what a correct profile reproduces exactly: the sorted
// (pattern ID, object) findings, the total modeled cycles, and the SHA-256
// of the text export.
type fingerprint struct {
	Findings      [][2]string `json:"findings"`
	ModeledCycles uint64      `json:"modeled_cycles"`
	TextSHA256    string      `json:"text_sha256"`
}

// fingerprintOf reduces a report and the digest of its text export.
func fingerprintOf(rep *core.Report, textSum []byte) fingerprint {
	fp := fingerprint{Findings: [][2]string{}, TextSHA256: hex.EncodeToString(textSum)}
	for i := range rep.Findings {
		f := &rep.Findings[i]
		fp.Findings = append(fp.Findings, [2]string{f.Pattern.ID(), rep.Trace.Object(f.Object).DisplayName()})
	}
	sort.Slice(fp.Findings, func(i, j int) bool {
		a, b := fp.Findings[i], fp.Findings[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	for _, o := range rep.Trace.Objects {
		fp.ModeledCycles += o.Cost.ModeledCycles
	}
	return fp
}

// mismatch describes how got differs from want, or returns "" when equal.
func (want fingerprint) mismatch(got fingerprint) string {
	switch {
	case got.TextSHA256 != want.TextSHA256:
		return fmt.Sprintf("text sha256 %s, want %s", got.TextSHA256, want.TextSHA256)
	case got.ModeledCycles != want.ModeledCycles:
		return fmt.Sprintf("modeled cycles %d, want %d", got.ModeledCycles, want.ModeledCycles)
	case fmt.Sprint(got.Findings) != fmt.Sprint(want.Findings):
		return fmt.Sprintf("findings %v, want %v", got.Findings, want.Findings)
	}
	return ""
}

// golden maps program name → sweep mode ("intra" or "object") → the
// fingerprint the current tree produces. intra-pipelined is checked
// against the intra entries: its reports must be byte-identical.
type golden map[string]map[string]fingerprint

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// writeGolden profiles every Table 1 program once per sweep mode and
// writes the fingerprints to path.
func writeGolden(path string) error {
	g := golden{}
	for _, w := range workloads.All() {
		g[w.Name] = map[string]fingerprint{}
		for _, mode := range []string{"intra", "object"} {
			p := sweepProgram(w, mode, fingerprint{})
			pr, err := profile(&p, false)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.Name, mode, err)
			}
			g[w.Name][mode] = fingerprintOf(pr.rep, pr.sum)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// programs builds a workload's program set. The sweeps take their
// expected fingerprints from g; stream-train profiles its generated loop
// offline once and expects every streamed profile to match it.
func programs(o *options, g golden) ([]program, error) {
	if o.workload == "stream-train" {
		loop := newTrainingLoop(o.seed, o.epochs)
		offline := program{name: "stream-train (offline)", run: loop.run, cfg: core.IntraObjectConfig()}
		pr, err := profile(&offline, false)
		if err != nil {
			return nil, fmt.Errorf("offline reference: %w", err)
		}
		p := offline
		p.name = "stream-train"
		p.cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: trainWindow}
		p.want = fingerprintOf(pr.rep, pr.sum)
		return []program{p}, nil
	}
	mode := "intra"
	if o.workload == "object" {
		mode = "object"
	}
	var ws []*workloads.Workload
	if len(o.programs) == 0 {
		ws = workloads.All()
	}
	for _, name := range o.programs {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		ws = append(ws, w)
	}
	var out []program
	for _, w := range ws {
		want, ok := g[w.Name][mode]
		if !ok {
			return nil, fmt.Errorf("%s: no %s entry in testdata/golden.json", w.Name, mode)
		}
		p := sweepProgram(w, mode, want)
		if o.workload == "intra-pipelined" {
			// The engine's budget for one run: every core but the one
			// simulating.
			p.cfg.PipelinedIngest = true
			p.cfg.PipelineShards = runtime.GOMAXPROCS(0) - 1
		}
		out = append(out, p)
	}
	return out, nil
}

// sweepProgram profiles w's naive variant the way drgpum -workload runs it:
// intra-object analysis over the program's kernel whitelist, or
// object-level analysis alone.
func sweepProgram(w *workloads.Workload, mode string, want fingerprint) program {
	cfg := core.DefaultConfig()
	if mode == "intra" {
		cfg = core.IntraObjectConfig()
		cfg.KernelWhitelist = w.IntraKernels
	}
	run := func(dev *gpu.Device, host workloads.Host) error {
		return w.Run(dev, host, workloads.VariantNaive)
	}
	return program{name: w.Name, run: run, cfg: cfg, want: want}
}

// trainingLoop is the stream-train program: persistent weights, one
// activation allocated, written by one kernel and freed per epoch.
type trainingLoop struct {
	epochs       []epoch
	weightFloats int
}

type epoch struct{ floats, stride int }

// newTrainingLoop draws each epoch's activation size and stride from the
// seed, without replacement from a pool that holds every combination
// equally often, so every seed does the same total work in another order.
func newTrainingLoop(seed int64, n int) trainingLoop {
	l := trainingLoop{epochs: make([]epoch, n), weightFloats: trainKFloats[len(trainKFloats)-1] * 1024}
	for i := range l.epochs {
		c := i % (len(trainKFloats) * len(trainStrides))
		l.epochs[i] = epoch{floats: trainKFloats[c/len(trainStrides)] * 1024, stride: trainStrides[c%len(trainStrides)]}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { l.epochs[i], l.epochs[j] = l.epochs[j], l.epochs[i] })
	return l
}

func (l trainingLoop) run(dev *gpu.Device, host workloads.Host) error {
	weights, err := dev.Malloc(uint64(4 * l.weightFloats))
	if err != nil {
		return err
	}
	host.Annotate(weights, "weights", 4)
	for e, ep := range l.epochs {
		bytes := uint64(4 * ep.floats)
		act, err := dev.Malloc(bytes)
		if err != nil {
			return err
		}
		host.Annotate(act, fmt.Sprintf("activation_%03d", e), 4)
		if err := dev.Memset(act, 0, bytes, nil); err != nil {
			return err
		}
		step := func(ctx *gpu.ExecContext) {
			for i := 0; i < ep.floats; i += ep.stride {
				w := ctx.LoadF32(weights + gpu.DevicePtr(4*i))
				ctx.StoreF32(act+gpu.DevicePtr(4*i), w+float32(e))
				ctx.StoreF32(weights+gpu.DevicePtr(4*i), w+1)
			}
		}
		if err := dev.LaunchFunc(nil, "train_step", gpu.Dim1(1), gpu.Dim1(64), step); err != nil {
			return err
		}
		if err := dev.Free(act); err != nil {
			return err
		}
	}
	return dev.Free(weights)
}
