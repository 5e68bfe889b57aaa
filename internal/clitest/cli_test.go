// Package clitest builds the real command-line binaries and exercises
// their flag plumbing end to end: the record → save → offline-analysis
// pipeline, the artifact-style result files, and the figure exports.
package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the binaries built once for the whole package.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "drgpum-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
	build.Dir = repoRoot()
	if out, err := build.CombinedOutput(); err != nil {
		panic("building CLIs: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// repoRoot locates the module root relative to this package.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest -> repo root
}

// command prepares (but does not start) one built binary, for tests that
// need the raw process — expected failures, combined output.
func command(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	return exec.Command(filepath.Join(binDir, name), args...)
}

// run executes one built binary and returns its stdout.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.Output()
	if err != nil {
		stderr := ""
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		t.Fatalf("%s %v: %v\n%s", name, args, err, stderr)
	}
	return string(out)
}

func TestDrgpumListAndProfile(t *testing.T) {
	list := run(t, "drgpum", "-list")
	if !strings.Contains(list, "rodinia/huffman") || !strings.Contains(list, "simplemulticopy") {
		t.Fatalf("-list output:\n%s", list)
	}

	text := run(t, "drgpum", "-workload", "simplemulticopy", "-verbose")
	for _, want := range []string{"DrGPUM report", "d_data_out1", "Early Allocation", "suggestion:", "allocated at:"} {
		if !strings.Contains(text, want) {
			t.Errorf("profile output missing %q", want)
		}
	}
}

func TestDrgpumJSONOutput(t *testing.T) {
	out := run(t, "drgpum", "-workload", "polybench/2mm", "-json")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if decoded["device"] != "RTX3090" {
		t.Errorf("device = %v", decoded["device"])
	}
	if n, _ := decoded["findings"].([]any); len(n) == 0 {
		t.Error("no findings in JSON output")
	}
}

func TestSaveAnalyzePipeline(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "profile.json")
	run(t, "drgpum", "-workload", "laghos", "-mode", "object", "-save", prof)

	if _, err := os.Stat(prof); err != nil {
		t.Fatal(err)
	}
	// Default threshold: the canonical report.
	out := run(t, "drgpum", "-load", prof)
	if !strings.Contains(out, "q_dx") || !strings.Contains(out, "Late Deallocation") {
		t.Errorf("analyze output missing the Listing 1 finding:\n%s", out)
	}
	// Stricter idleness bar yields at least as many findings.
	loose := run(t, "drgpum", "-load", prof, "-ti", "2")
	if strings.Count(loose, "Temporary Idleness") < strings.Count(out, "Temporary Idleness") {
		t.Error("lower threshold reported fewer idleness findings")
	}
}

func TestExportsAndVariantFlag(t *testing.T) {
	dir := t.TempDir()
	gui := filepath.Join(dir, "liveness.json")
	html := filepath.Join(dir, "report.html")
	run(t, "drgpum", "-workload", "simplemulticopy", "-gui", gui, "-html", html)

	guiData, err := os.ReadFile(gui)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(guiData, &doc); err != nil {
		t.Fatalf("GUI trace is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("GUI trace missing traceEvents")
	}
	htmlData, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(htmlData), "<!DOCTYPE html>") {
		t.Error("HTML report malformed")
	}

	// The optimized variant of simplemulticopy halves the peak.
	naive := run(t, "drgpum", "-workload", "simplemulticopy", "-variant", "naive")
	opt := run(t, "drgpum", "-workload", "simplemulticopy", "-variant", "optimized")
	if !strings.Contains(naive, "memory peak #1: 262144") || !strings.Contains(opt, "memory peak #1: 131072") {
		t.Error("variant flag did not change the profile")
	}
}

func TestDiffMode(t *testing.T) {
	out := run(t, "drgpum", "-workload", "rodinia/huffman", "-diff")
	for _, want := range []string{"data-object peak:", "-68%", "advisor predicted", "finding(s) eliminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestDrgpumRunFlagErrors pins that the CLI parses its run flags with the
// parser drgpum-serve uses: what the server answers 400 to, the CLI
// rejects with exit status 1 and the same message, rather than ignoring
// the window or clamping the sampling period. An unknown workload keeps
// the CLI's -list hint, and -heatmap implies -stream, so -window is valid
// with it.
func TestDrgpumRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "simplemulticopy", "-window", "4"}, "drgpum: window requires streaming"},
		{[]string{"-workload", "simplemulticopy", "-sampling", "-3"}, "drgpum: sampling must be >= 0, got -3"},
		{[]string{"-workload", "nonesuch"}, `drgpum: unknown workload "nonesuch"; use -list to see the available ones`},
	} {
		out, err := command(t, "drgpum", c.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("drgpum %v: err %v, want exit status 1:\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("drgpum %v: output missing %q:\n%s", c.args, c.want, out)
		}
	}
	heat := run(t, "drgpum", "-workload", "simplemulticopy", "-window", "4", "-heatmap")
	if !strings.Contains(heat, "temporal heat map — 1 epoch(s) of 4 kernel(s) each") {
		t.Errorf("-window 4 -heatmap did not stream 4-kernel epochs:\n%s", heat)
	}
}

// TestDrgpumFlagPaths pins that each of drgpum's paths — a workload run,
// -diff, -load, -load with -baseline, and -list — rejects a flag it would
// not read, with exit status 1 and a message naming the flag and the path,
// instead of dropping the setting and exiting 0.
func TestDrgpumFlagPaths(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.json")
	run(t, "drgpum", "-workload", "simplemulticopy", "-mode", "object", "-save", prof)
	gui := filepath.Join(dir, "x.json")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"diff/gui", []string{"-workload", "simplemulticopy", "-diff", "-gui", gui}, "drgpum: -gui does not apply to -diff"},
		{"diff/json", []string{"-workload", "simplemulticopy", "-diff", "-json"}, "drgpum: -json does not apply to -diff"},
		{"diff/stats", []string{"-workload", "simplemulticopy", "-diff", "-stats"}, "drgpum: -stats does not apply to -diff"},
		{"diff/heatmap", []string{"-workload", "simplemulticopy", "-diff", "-heatmap"}, "drgpum: -heatmap does not apply to -diff"},
		{"diff/variant", []string{"-workload", "simplemulticopy", "-diff", "-variant", "optimized"}, "drgpum: -variant does not apply to -diff"},
		{"run/ti", []string{"-workload", "simplemulticopy", "-ti", "3"}, "drgpum: -ti does not apply to a workload run"},
		{"load/diff", []string{"-load", prof, "-diff", "-mode", "intra", "-stats", "-memcheck"}, "drgpum: -diff does not apply to -load"},
		{"load/stats", []string{"-load", prof, "-stats"}, "drgpum: -stats does not apply to -load"},
		{"load/workload", []string{"-load", prof, "-workload", "simplemulticopy"}, "drgpum: -workload does not apply to -load"},
		{"baseline/json", []string{"-load", prof, "-baseline", prof, "-json"}, "drgpum: -json does not apply to -load with -baseline"},
		{"list/workload", []string{"-list", "-workload", "nonesuch"}, "drgpum: -workload does not apply to -list"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := command(t, "drgpum", c.args...).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Errorf("drgpum %v: err %v, want exit status 1:\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("drgpum %v: output missing %q:\n%s", c.args, c.want, out)
			}
		})
	}
	if _, err := os.Stat(gui); !os.IsNotExist(err) {
		t.Errorf("rejected -diff -gui wrote %s (stat err %v)", gui, err)
	}
	// The flags -diff reads still combine.
	if out := run(t, "drgpum", "-workload", "simplemulticopy", "-diff", "-stream", "-memcheck"); !strings.Contains(out, "data-object peak:") {
		t.Errorf("-diff -stream -memcheck output:\n%s", out)
	}
	// No path reads -pipelined: a run pipelines its ingest on its own
	// when a second core is free.
	out, err := command(t, "drgpum", "-workload", "simplemulticopy", "-pipelined").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -pipelined") {
		t.Errorf("drgpum -pipelined: err %v, want exit status 2 naming the undefined flag:\n%s", err, out)
	}
}

// TestTablesUnknownTable: a table the paper's evaluation does not have
// fails with exit status 1 and names the ones drgpum-tables regenerates.
func TestTablesUnknownTable(t *testing.T) {
	out, err := command(t, "drgpum-tables", "-table", "6").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("err %v, want exit status 1:\n%s", err, out)
	}
	for _, want := range []string{`unknown -table "6"`, "1, 4, 5 or all"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTablesResultsDir(t *testing.T) {
	dir := t.TempDir()
	run(t, "drgpum-tables", "-table", "1", "-o", dir)
	data, err := os.ReadFile(filepath.Join(dir, "patterns.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "xsbench") {
		t.Error("patterns.txt incomplete")
	}
	// Table 5 has no result file, so -o is rejected rather than ignored.
	out, err := command(t, "drgpum-tables", "-table", "5", "-o", dir).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), "does not apply to -table 5") {
		t.Errorf("-table 5 -o: err %v, want exit status 1 naming -table 5:\n%s", err, out)
	}
}

func TestCompareCLI(t *testing.T) {
	out := run(t, "drgpum-tables", "-table", "5")
	if !strings.Contains(out, "Compute Sanitizer") || strings.Count(out, "Yes") < 11 {
		t.Errorf("compare output:\n%s", out)
	}
}

func TestAnalyzeBaselineComparison(t *testing.T) {
	dir := t.TempDir()
	naive := filepath.Join(dir, "naive.json")
	opt := filepath.Join(dir, "opt.json")
	run(t, "drgpum", "-workload", "rodinia/huffman", "-mode", "object", "-save", naive)
	run(t, "drgpum", "-workload", "rodinia/huffman", "-variant", "optimized", "-mode", "object", "-save", opt)

	out := run(t, "drgpum", "-load", opt, "-baseline", naive)
	for _, want := range []string{"data-object peak:", "(-68%)", "d_cw32", "eliminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("baseline comparison missing %q:\n%s", want, out)
		}
	}
}
