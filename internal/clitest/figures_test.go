package clitest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOverheadTable exercises drgpum-overhead end to end on a small
// workload subset: the Figure 6 table must appear with one row per
// workload per device, rows grouped by device in the requested workload
// order, and the paper-style summary lines must follow.
func TestOverheadTable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping overhead measurement in -short mode")
	}
	out := run(t, "drgpum-overhead", "-repeats", "1", "-workloads", "laghos,simplemulticopy")

	if !strings.Contains(out, "Program") || !strings.Contains(out, "intra ovh") {
		t.Fatalf("table header missing:\n%s", out)
	}

	// Collect (program, device) in output order.
	type rowID struct{ program, device string }
	var got []rowID
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 7 && (fields[0] == "laghos" || fields[0] == "simplemulticopy") {
			got = append(got, rowID{fields[0], fields[1]})
		}
	}
	want := []rowID{
		{"laghos", "RTX3090"}, {"simplemulticopy", "RTX3090"},
		{"laghos", "A100"}, {"simplemulticopy", "A100"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d table rows, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}

	for _, device := range []string{"RTX3090", "A100"} {
		if !strings.Contains(out, device+": object-level median") {
			t.Errorf("summary line for %s missing:\n%s", device, out)
		}
	}
}

// TestOverheadUnknownWorkload checks the filter rejects bad names instead
// of silently measuring nothing.
func TestOverheadUnknownWorkload(t *testing.T) {
	cmd := command(t, "drgpum-overhead", "-repeats", "1", "-workloads", "nonesuch")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure for unknown workload, got:\n%s", out)
	}
	if !strings.Contains(string(out), `unknown workload "nonesuch"`) {
		t.Errorf("error output:\n%s", out)
	}
}

// TestGUIExportDeterministic exports the paper's Figure 7 trace —
// drgpum -workload simplemulticopy -gui — twice and requires the Perfetto
// trace to be byte-identical across runs: the determinism guarantee the
// whole toolchain advertises.
func TestGUIExportDeterministic(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "a.json")
	second := filepath.Join(dir, "b.json")

	out, err := command(t, "drgpum", "-workload", "simplemulticopy", "-gui", first).CombinedOutput()
	if err != nil {
		t.Fatalf("drgpum -gui: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrote "+first) || !strings.Contains(string(out), "perfetto") {
		t.Errorf("output missing the wrote line:\n%s", out)
	}
	run(t, "drgpum", "-workload", "simplemulticopy", "-gui", second)

	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty Perfetto export")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("Perfetto export differs across runs (%d vs %d bytes)", len(a), len(b))
	}
}
