package callpath

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// callSiteA and callSiteB give the unwinder two distinct, named frames.
func callSiteA(u *Unwinder) PathID { return callSiteInner(u) }
func callSiteB(u *Unwinder) PathID { return callSiteInner(u) }
func callSiteInner(u *Unwinder) PathID {
	return u.Capture()
}

// size is the number of interned nodes (excluding the root sentinel).
func size(u *Unwinder) int { return len(u.nodes) - 1 }

func TestCaptureDistinguishesCallers(t *testing.T) {
	u := NewUnwinder()
	a := callSiteA(u)
	b := callSiteB(u)
	if a == 0 || b == 0 {
		t.Fatal("capture returned the zero path")
	}
	if a == b {
		t.Error("different call paths interned to the same ID")
	}

	fa := u.Frames(a)
	if len(fa) < 3 {
		t.Fatalf("path too shallow: %v", fa)
	}
	if !strings.Contains(fa[0].Function, "callSiteInner") {
		t.Errorf("leaf frame = %v, want callSiteInner", fa[0])
	}
	if !strings.Contains(fa[1].Function, "callSiteA") {
		t.Errorf("second frame = %v, want callSiteA", fa[1])
	}
}

func TestCaptureInternsIdenticalPaths(t *testing.T) {
	u := NewUnwinder()
	var ids []PathID
	var sizes []int
	for i := 0; i < 5; i++ {
		ids = append(ids, loopCapture(u))
		sizes = append(sizes, size(u))
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical call paths got different IDs: %v", ids)
		}
	}
	// Repeating the same capture must not grow the tree.
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Fatalf("tree grew on repeated capture: %v", sizes)
		}
	}
}

func loopCapture(u *Unwinder) PathID { return u.Capture() }

func TestLeafAndFormat(t *testing.T) {
	u := NewUnwinder()
	id := callSiteA(u)
	leaf, ok := Leaf(u, id)
	if !ok || leaf.Line == 0 || leaf.File == "" {
		t.Errorf("leaf = %+v", leaf)
	}
	text := Format(u, id)
	if !strings.Contains(text, "callSiteInner") || !strings.Contains(text, "callSiteA") {
		t.Errorf("Format output missing frames:\n%s", text)
	}
	if !strings.Contains(text, "callpath_test.go:") {
		t.Errorf("Format output missing file:line:\n%s", text)
	}
}

func TestZeroPath(t *testing.T) {
	u := NewUnwinder()
	if frames := u.Frames(0); frames != nil {
		t.Errorf("Frames(0) = %v", frames)
	}
	if _, ok := Leaf(u, 0); ok {
		t.Error("Leaf(0) should not resolve")
	}
}

func TestSharedPrefixSharing(t *testing.T) {
	u := NewUnwinder()
	_ = callSiteA(u)
	before := size(u)
	_ = callSiteB(u)
	after := size(u)
	// The two paths differ only near the leaf; the common prefix (test
	// harness frames) must be shared, so the growth is small.
	if grown := after - before; grown > 3 {
		t.Errorf("second sibling path added %d nodes; prefixes are not shared", grown)
	}
}

func TestFrozenResolverMatchesLive(t *testing.T) {
	u := NewUnwinder()
	id := callSiteA(u)
	frozen := Frozen{id: u.Frames(id)}

	if got, want := Format(frozen, id), Format(u, id); got != want {
		t.Errorf("frozen Format differs:\n%s\nvs\n%s", got, want)
	}
	fl, okF := Leaf(frozen, id)
	ul, okU := Leaf(u, id)
	if okF != okU || fl != ul {
		t.Errorf("frozen Leaf = %v,%v vs %v,%v", fl, okF, ul, okU)
	}
	if _, ok := Leaf(frozen, 0); ok {
		t.Error("frozen Leaf(0) resolved")
	}
	if frozen.Frames(9999) != nil {
		t.Error("frozen unknown path resolved")
	}
	// A nil map is usable.
	if Format(Frozen(nil), 1) != "" {
		t.Error("empty frozen resolver returned frames")
	}
}

// recurse captures from n frames below its first call.
func recurse(u *Unwinder, n int) PathID {
	if n == 0 {
		return u.Capture()
	}
	return recurse(u, n-1)
}

func TestMaxDepthBoundsCapture(t *testing.T) {
	u := NewUnwinder()
	frames := u.Frames(recurse(u, 2*maxDepth))
	if len(frames) != maxDepth {
		t.Errorf("captured %d frames %d calls deep, want the bound %d", len(frames), 2*maxDepth, maxDepth)
	}
}

// TestNoMarkerDropsOnlyGoRuntime checks the cut without Enter on the
// stack: the path is the whole stack from Capture's caller outward, less
// the Go runtime's frames at the outer end.
func TestNoMarkerDropsOnlyGoRuntime(t *testing.T) {
	u := NewUnwinder()
	got := u.Frames(callSiteA(u))
	if n := len(got); n == 0 || got[n-1].Function != "testing.tRunner" {
		t.Fatalf("outermost frame is not the test harness's: %v", got)
	}
	for _, f := range got {
		if strings.HasPrefix(f.Function, "runtime.") {
			t.Errorf("kept Go runtime frame %v", f)
		}
	}
	// Every frame but the innermost two (callSiteInner and callSiteA) is
	// the test's own stack, so it equals a raw unwind's from here on.
	var raw []string
	pcs := make([]uintptr, maxDepth)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for f, more := frames.Next(); ; f, more = frames.Next() {
		if !strings.HasPrefix(f.Function, "runtime.") {
			raw = append(raw, f.Function)
		}
		if !more {
			break
		}
	}
	if len(got) != len(raw)+2 {
		t.Fatalf("captured %d frames, raw stack has %d program frames: %v", len(got), len(raw), got)
	}
	for i, fn := range raw {
		if got[i+2].Function != fn {
			t.Errorf("frame %d = %s, raw stack has %s", i+2, got[i+2].Function, fn)
		}
	}
}

// program stands for a workload: entered through Enter, it captures two
// frames below its own.
func program(u *Unwinder, id *PathID) error {
	*id = callSiteA(u)
	return nil
}

// TestEnterCut checks the root: Enter, its closure and everything outside
// them are dropped, so the path ends at the program's first frame.
func TestEnterCut(t *testing.T) {
	u := NewUnwinder()
	var id PathID
	if err := Enter(func() error { return program(u, &id) }); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range u.Frames(id) {
		got = append(got, f.Function)
	}
	want := []string{
		"drgpum/internal/callpath.callSiteInner",
		"drgpum/internal/callpath.callSiteA",
		"drgpum/internal/callpath.program",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("path inside Enter = %v, want %v", got, want)
	}
}

// atDepth calls Enter from n frames below its first call.
func atDepth(n int, run func() error) error {
	if n == 0 {
		return Enter(run)
	}
	return atDepth(n-1, run)
}

// TestPathIDsIndependentOfCaller runs the same program from two goroutines
// whose stacks outside Enter differ in depth: both intern the same IDs and
// frames, since nothing outside the cut is interned.
func TestPathIDsIndependentOfCaller(t *testing.T) {
	type result struct {
		ids    []PathID
		frames [][]Frame
	}
	run := func(depth int) result {
		ch := make(chan result)
		go func() {
			u := NewUnwinder()
			var r result
			_ = atDepth(depth, func() error {
				for _, capture := range []func(*Unwinder) PathID{callSiteA, callSiteB, callSiteA} {
					r.ids = append(r.ids, capture(u))
				}
				return nil
			})
			for _, id := range r.ids {
				r.frames = append(r.frames, u.Frames(id))
			}
			ch <- r
		}()
		return <-ch
	}
	shallow, deep := run(0), run(9)
	for i := range shallow.ids {
		if shallow.ids[i] == 0 {
			t.Fatalf("capture %d returned the zero path", i)
		}
		if shallow.ids[i] != deep.ids[i] {
			t.Errorf("capture %d: path ID %d at one depth, %d at another", i, shallow.ids[i], deep.ids[i])
		}
		if !slices.Equal(shallow.frames[i], deep.frames[i]) {
			t.Errorf("capture %d: frames differ:\n%v\nvs\n%v", i, shallow.frames[i], deep.frames[i])
		}
	}
}
