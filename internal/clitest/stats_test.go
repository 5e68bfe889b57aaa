package clitest

import (
	"os"
	"strings"
	"testing"
)

// TestDrgpumStatsFlag pins the drgpum -stats flag: the report is followed
// by the self-observability summary, and two runs print byte-identical
// stats (the summary carries no wall-clock bytes).
func TestDrgpumStatsFlag(t *testing.T) {
	out := run(t, "drgpum", "-workload", "simplemulticopy", "-stats")
	for _, want := range []string{
		"DrGPUM report",
		"self-observability",
		"apis ingested",
		"phases:",
		"analyze",
		"ingest",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "µs") || strings.Contains(out, "ms") {
		t.Errorf("-stats report output contains wall-clock bytes:\n%s", out)
	}
	again := run(t, "drgpum", "-workload", "simplemulticopy", "-stats")
	if out != again {
		t.Error("two -stats runs differ")
	}
}

// TestTablesStatsFlag pins drgpum-tables -stats: the engine's aggregated
// breakdown (with wall time — this sink is informational, not
// byte-identity) follows the tables.
func TestTablesStatsFlag(t *testing.T) {
	out := run(t, "drgpum-tables", "-table", "1", "-stats")
	for _, want := range []string{"Table 1", "self-observability", "engine runs", "engine misses", "profile", "calls"} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestOverheadStatsFlag pins the acceptance criterion that
// drgpum-overhead -stats prints a per-phase self-time breakdown next to
// the overhead medians, with every measured run a fresh execution.
func TestOverheadStatsFlag(t *testing.T) {
	out := run(t, "drgpum-overhead",
		"-repeats", "1", "-workloads", "simplemulticopy", "-stats")
	for _, want := range []string{
		"self-observability",
		"engine misses",
		"attach",
		"analyze",
		"native",
		"profile",
		"calls",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestDrgpumStatsFlagAcrossCores pins that -stats does not depend on the
// core count: at GOMAXPROCS 2 every profiled run hands its full batches
// of access records to a consumer goroutine, batches recorded only for
// the cost model included, and at GOMAXPROCS 1 it delivers inline, yet
// pipeline/batches counts only the batches that reach the hooks, so both
// print the same bytes at either analysis level.
func TestDrgpumStatsFlagAcrossCores(t *testing.T) {
	for _, w := range []string{"rodinia/huffman", "darknet"} {
		for _, mode := range []string{"object", "intra"} {
			var outs [2]string
			for i, procs := range []string{"1", "2"} {
				cmd := command(t, "drgpum", "-workload", w, "-mode", mode, "-stats")
				cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("drgpum -workload %s -mode %s -stats at GOMAXPROCS %s: %v", w, mode, procs, err)
				}
				outs[i] = string(out)
			}
			if !strings.Contains(outs[0], "self-observability") {
				t.Fatalf("%s -mode %s -stats printed no summary:\n%s", w, mode, outs[0])
			}
			if outs[0] != outs[1] {
				t.Errorf("%s -mode %s -stats differs between GOMAXPROCS 1 and 2:\n--- 1\n%s\n--- 2\n%s", w, mode, outs[0], outs[1])
			}
		}
	}
}
