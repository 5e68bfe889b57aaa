package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smallRun is one round of a workload on a three-program subset of the
// sweeps, or a 16-epoch training loop.
func smallRun(t *testing.T, workload string, seed int64, trace bool, g golden) resultLine {
	t.Helper()
	o := options{
		workload: workload, seed: seed, trace: trace,
		programs: []string{"simplemulticopy", "sdk/matrixtranspose", "sdk/particles"},
		epochs:   16, rounds: 1, setups: 1, replays: 1, golden: g,
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var top map[string]json.RawMessage
	if err := json.Unmarshal(last, &top); err != nil {
		t.Fatalf("%s: result line does not parse: %v\n%s", workload, err, last)
	}
	if got := sortedKeys(top); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("%s: result keys %v", workload, got)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"unit", "value"}) {
			t.Fatalf("%s: metric %s has keys %v", workload, name, got)
		}
	}
	var r resultLine
	if err := json.Unmarshal(last, &r); err != nil {
		t.Fatal(err)
	}
	if r.Attempted < 1 {
		t.Fatalf("%s: attempted %d", workload, r.Attempted)
	}
	return r
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness: BENCHMARK.json names exactly the
// workloads and metrics the harness reports, with the same units.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkFile(t)
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", ws, workloadNames)
	}
	same := func(kind string, file [][2]string, defs []def) {
		var want [][2]string
		for _, d := range defs {
			want = append(want, [2]string{d.name, d.unit})
		}
		if !reflect.DeepEqual(file, want) {
			t.Errorf("%s metrics %v, harness reports %v", kind, file, want)
		}
	}
	var e2e, layer [][2]string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// TestEndToEnd runs every workload untraced: no failed run, and every
// end-to-end metric present with its unit and never 0. The workloads run
// one after another, since the memory metrics read the process's heap.
func TestEndToEnd(t *testing.T) {
	b := loadBenchmarkFile(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		r := smallRun(t, w, 1, false, g)
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", w, r.Correct, r.Failed, r.Attempted)
		}
		for _, m := range b.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestPerLayer runs every workload's traced pass with two seeds: no
// failed run, every per-layer metric present with its unit, and exact
// counters identical across the seeds. The workloads run in parallel,
// which also checks that runs share no mutable state.
func TestPerLayer(t *testing.T) {
	b := loadBenchmarkFile(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			first := smallRun(t, w, 1, true, g)
			second := smallRun(t, w, 2, true, g)
			for _, r := range []resultLine{first, second} {
				if !r.Correct || r.Failed != 0 {
					t.Errorf("correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
				}
				for _, m := range b.PerLayer {
					if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			for _, d := range perLayer {
				if d.exact && first.Metrics[d.name] != second.Metrics[d.name] {
					t.Errorf("exact counter %s differs across seeds: %v vs %v", d.name, first.Metrics[d.name], second.Metrics[d.name])
				}
			}
		})
	}
}

// TestCorruptGoldenFails: a profile that does not reproduce its golden
// fingerprint counts as failed.
func TestCorruptGoldenFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	fp := g["simplemulticopy"]["intra"]
	fp.TextSHA256 = strings.Repeat("0", 64)
	g["simplemulticopy"]["intra"] = fp
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the mismatches it prints are expected
	for _, w := range []string{"intra", "intra-pipelined"} {
		if r := smallRun(t, w, 1, false, g); r.Correct || r.Failed == 0 {
			t.Errorf("%s with a corrupted golden hash: correct=%v failed=%d of %d", w, r.Correct, r.Failed, r.Attempted)
		}
	}
}
