package trace

import (
	"runtime"
	"strings"
	"testing"

	"drgpum/internal/callpath"
	"drgpum/internal/gpu"
	"drgpum/internal/pool"
)

// nextLine returns the line after the one that calls it.
func nextLine() int {
	_, _, line, _ := runtime.Caller(1)
	return line + 1
}

// TestAPIPathLeafIsTheCallersLine checks the leaf rule at three call
// depths into the simulated runtime: Malloc's emit, LaunchFunc through
// Launch, and a pool's Alloc through its segment Malloc and CustomAlloc.
// Every API's leaf is this test's line that made the call.
func TestAPIPathLeafIsTheCallersLine(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	pl := pool.New(dev, 4096)

	var want []int
	want = append(want, nextLine())
	if _, err := dev.Malloc(256); err != nil {
		t.Fatal(err)
	}
	want = append(want, nextLine())
	if err := dev.LaunchFunc(nil, "noop", gpu.Dim1(1), gpu.Dim1(1), func(*gpu.ExecContext) {}); err != nil {
		t.Fatal(err)
	}
	line := nextLine()
	if _, err := pl.Alloc(64); err != nil { // the segment's Malloc, then CustomAlloc
		t.Fatal(err)
	}
	want = append(want, line, line)

	tr := c.Trace()
	if len(tr.APIs) != len(want) {
		t.Fatalf("%d APIs, want %d", len(tr.APIs), len(want))
	}
	for i, a := range tr.APIs {
		leaf, ok := callpath.Leaf(tr.Unwinder, a.Path)
		if !ok || !strings.HasSuffix(leaf.Function, ".TestAPIPathLeafIsTheCallersLine") ||
			!strings.HasSuffix(leaf.File, "/callpath_test.go") || leaf.Line != want[i] {
			t.Errorf("%s leaf = %v, want this test's line %d", a.Rec.Name, leaf, want[i])
		}
	}
}
