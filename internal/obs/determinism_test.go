package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"drgpum/internal/callpath"
	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/gui"
	"drgpum/internal/obs"
	"drgpum/internal/workloads"
)

// observedRun profiles the named workload with self-observability enabled
// and returns the report's stats text and GUI export bytes — the two
// obs-bearing sinks that must be byte-identical across runs.
func observedRun(t *testing.T, name string) (stats, guiJSON []byte) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	cfg.Obs = obs.New()
	prof := core.Attach(dev, cfg)
	// Entered like an engine run, so the GUI's call paths name the
	// workload's frames only, not the line of this test that ran it.
	if err := callpath.Enter(func() error { return w.Run(dev, prof, workloads.VariantNaive) }); err != nil {
		t.Fatal(err)
	}
	rep := prof.Finish()
	if rep.Obs == nil {
		t.Fatal("report carries no obs snapshot despite Config.Obs")
	}
	var buf bytes.Buffer
	if err := gui.Export(rep, &buf); err != nil {
		t.Fatal(err)
	}
	return []byte(rep.Stats()), buf.Bytes()
}

// TestObsOutputDeterminism pins that the self-observability sinks carry no
// clock- or scheduling-derived bytes: two runs of the same workload produce
// byte-identical Report.Stats text and byte-identical GUI exports (obs
// track included).
func TestObsOutputDeterminism(t *testing.T) {
	for _, name := range []string{"simplemulticopy", "rodinia/huffman"} {
		t.Run(name, func(t *testing.T) {
			stats1, gui1 := observedRun(t, name)
			stats2, gui2 := observedRun(t, name)
			if !bytes.Equal(stats1, stats2) {
				t.Errorf("two runs' stats differ:\n--- first\n%s--- second\n%s", stats1, stats2)
			}
			if !bytes.Equal(gui1, gui2) {
				t.Errorf("two runs' GUI exports differ (%d vs %d bytes)", len(gui1), len(gui2))
			}
		})
	}
}

// engineBatch runs a small spec batch (with deliberate duplicates, so the
// cache paths engage) on an engine with a master recorder. It returns the
// per-result stats texts and the master's zero-wall span tree.
func engineBatch(t *testing.T, workers int) (stats [][]byte, spans []byte, master *obs.Recorder) {
	t.Helper()
	names := []string{"simplemulticopy", "rodinia/huffman", "simplemulticopy", "rodinia/huffman"}
	specs := make([]engine.RunSpec, 0, len(names))
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %s", n)
		}
		specs = append(specs, engine.RunSpec{
			Workload: w,
			Spec:     gpu.SpecRTX3090(),
			Level:    gpu.PatchFull,
		})
	}
	master = obs.New()
	eng := engine.New(engine.Config{Workers: workers, Obs: master})
	results, err := eng.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		stats = append(stats, []byte(res.Report.Stats()))
	}
	zw := master.Snapshot().ZeroWall()
	data, err := json.Marshal(zw.Spans)
	if err != nil {
		t.Fatal(err)
	}
	return stats, data, master
}

// TestEngineObsDeterminism pins the engine's obs aggregation across
// scheduling: per-report stats are run-local (a cached result returns the
// executing run's snapshot, so results are byte-identical one-worker vs
// parallel), the merged master span tree is scheduling-independent, and
// the mirrored engine counters obey runs = hits + dedups + misses with
// only the hits/dedups split free to vary.
func TestEngineObsDeterminism(t *testing.T) {
	seqStats, seqSpans, seqMaster := engineBatch(t, 1)
	parStats, parSpans, parMaster := engineBatch(t, 0)
	for i := range seqStats {
		if !bytes.Equal(seqStats[i], parStats[i]) {
			t.Errorf("result %d stats differ:\n--- sequential\n%s--- parallel\n%s", i, seqStats[i], parStats[i])
		}
	}
	if !bytes.Equal(seqSpans, parSpans) {
		t.Errorf("master span trees differ:\n--- sequential\n%s\n--- parallel\n%s", seqSpans, parSpans)
	}
	for _, m := range []*obs.Recorder{seqMaster, parMaster} {
		c := counterMap(m.Snapshot())
		runs := c["engine runs"]
		sum := c["engine cache hits"] + c["engine dedups"] + c["engine misses"]
		if runs == 0 || runs != sum {
			t.Errorf("engine counters inconsistent: runs=%d hits+dedups+misses=%d", runs, sum)
		}
		if c["engine misses"] != 2 {
			t.Errorf("engine misses = %d, want 2 (one per unique tuple)", c["engine misses"])
		}
	}
}

func counterMap(s obs.Snapshot) map[string]uint64 {
	m := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		m[c.Name] = c.Value
	}
	return m
}
