package clitest

import (
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
