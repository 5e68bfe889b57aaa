package core_test

import (
	"bytes"
	"encoding/json"
	"testing"
)

// profiledJSON profiles the named workload from scratch and returns the
// serialized report.
func profiledJSON(t *testing.T, name string) []byte {
	t.Helper()
	prof := collectedProfiler(t, name)
	out, err := json.Marshal(prof.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalysisDeterminism pins DESIGN.md §4.1: profiling the same workload
// must yield byte-identical JSON reports across runs. Any ordering leak
// (map iteration, non-deterministic merge) shows up here as a diff.
func TestAnalysisDeterminism(t *testing.T) {
	for _, name := range []string{"simplemulticopy", "rodinia/huffman", "polybench/bicg"} {
		t.Run(name, func(t *testing.T) {
			first := profiledJSON(t, name)
			again := profiledJSON(t, name)
			if !bytes.Equal(first, again) {
				t.Errorf("two runs differ (%d vs %d bytes)", len(first), len(again))
			}
		})
	}
}
