package engine_test

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	_ "drgpum/internal/gui" // registers the GUI and HTML formats
)

// foreignFrame matches a frame of the simulated runtime, the engine or the
// Go runtime, by function name or by file path.
var foreignFrame = regexp.MustCompile(`drgpum/internal/(gpu|pool|engine)[./]|(^|[^\w/.])runtime\.\w`)

// darknetLine matches a darknet.go frame in the verbose text.
var darknetLine = regexp.MustCompile(`\(darknet\.go:\d+\)`)

// TestExportsNameProgramFramesOnly renders every export of profiled runs
// with memcheck on: an intra-object program, one allocating through a
// pool, darknet, and the memcheck fixture whose issues carry allocating,
// freeing and accessing paths. No export may name a frame the cut at
// capture drops, and darknet's allocation paths must tell its layers
// apart.
func TestExportsNameProgramFramesOnly(t *testing.T) {
	var specs []engine.RunSpec
	for _, name := range []string{"rodinia/huffman", "pytorch", "darknet", "memcheck/knownbad"} {
		s, err := engine.Request{Workload: name, Memcheck: true}.Spec()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	res, err := engine.New(engine.Config{}).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		rep := res[i].Report
		exports := map[string][]byte{}
		for _, f := range core.Formats() {
			var b bytes.Buffer
			if err := rep.Export(&b, f); err != nil {
				t.Fatalf("%s: %s export: %v", s.Workload.Name, f, err)
			}
			exports[f.String()] = b.Bytes()
		}
		var verbose bytes.Buffer
		rep.Render(&verbose, true)
		exports["verbose"] = verbose.Bytes()
		if exports["json"], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		var mc bytes.Buffer
		if err := rep.Memcheck.Render(&mc); err != nil {
			t.Fatal(err)
		}
		exports["memcheck"] = mc.Bytes()
		if s.Workload.Name == "memcheck/knownbad" && len(rep.Memcheck.Issues) == 0 {
			t.Error("memcheck/knownbad: memcheck reported nothing")
		}
		for name, b := range exports {
			if m := foreignFrame.Find(b); m != nil {
				t.Errorf("%s: %s export names a dropped frame at %q", s.Workload.Name, name, m)
			}
		}
		if s.Workload.Name == "darknet" {
			sites := map[string]bool{}
			for _, m := range darknetLine.FindAll(exports["verbose"], -1) {
				sites[string(m)] = true
			}
			if len(sites) < 2 {
				t.Errorf("darknet's allocation paths name %d darknet.go line(s), want at least 2: %v", len(sites), sites)
			}
		}
	}
}
