package intraobj

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasic(t *testing.T) {
	b := NewBitmap(100)
	if b.Len() != 100 || b.Count() != 0 || !b.Empty() {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(99)
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 99} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(100) || b.Get(-1) {
		t.Error("unexpected bits set (or out-of-range reads true)")
	}
	b.Set(100) // out of range: ignored
	b.Set(-5)
	if b.Count() != 4 {
		t.Error("out-of-range Set changed the bitmap")
	}
	b.Reset()
	if !b.Empty() {
		t.Error("Reset left bits")
	}
}

func TestBitmapSetRange(t *testing.T) {
	b := NewBitmap(64)
	b.SetRange(10, 20)
	if b.Count() != 11 {
		t.Errorf("Count after SetRange = %d", b.Count())
	}
	b.SetRange(-5, 2) // clamped
	if !b.Get(0) || !b.Get(2) {
		t.Error("clamped range not applied")
	}
	b.SetRange(60, 100)
	if !b.Get(63) {
		t.Error("clamped upper range not applied")
	}
}

func TestBitmapOverlapsAndOr(t *testing.T) {
	a := NewBitmap(128)
	b := NewBitmap(128)
	a.Set(5)
	b.Set(6)
	if a.Overlaps(b) {
		t.Error("disjoint bitmaps reported overlapping")
	}
	b.Set(5)
	if !a.Overlaps(b) {
		t.Error("overlap missed")
	}
	a.Or(b)
	if !a.Get(6) || a.Count() != 2 {
		t.Errorf("Or result Count = %d", a.Count())
	}
}

func TestBitmapContiguous(t *testing.T) {
	b := NewBitmap(64)
	if b.Contiguous() {
		t.Error("empty bitmap reported contiguous")
	}
	b.Set(10)
	if !b.Contiguous() {
		t.Error("single bit not contiguous")
	}
	b.SetRange(10, 20)
	if !b.Contiguous() {
		t.Error("solid run not contiguous")
	}
	b.Set(30)
	if b.Contiguous() {
		t.Error("gap not detected")
	}
}

func TestBitmapLargestZeroRun(t *testing.T) {
	b := NewBitmap(20)
	if b.LargestZeroRun() != 20 {
		t.Errorf("all-zero run = %d", b.LargestZeroRun())
	}
	b.Set(5)
	b.Set(12)
	// runs: [0..4]=5, [6..11]=6, [13..19]=7
	if got := b.LargestZeroRun(); got != 7 {
		t.Errorf("LargestZeroRun = %d, want 7", got)
	}
}

// bitmapSummary summarizes an object whose cumulative bitmap is b.
func bitmapSummary(b *Bitmap) summary {
	st := &objState{elems: b.Len(), total: b, freqDiff: make([]uint32, b.Len()+1)}
	return st.summarize()
}

// TestFragmentationEquation1 checks the paper's Equation 1 on crafted
// layouts.
func TestFragmentationEquation1(t *testing.T) {
	// One contiguous unaccessed tail: Frag = 1 - tail/tail = 0.
	b := NewBitmap(100)
	b.SetRange(0, 49)
	if got := bitmapSummary(b).fragPct; got != 0 {
		t.Errorf("contiguous tail fragmentation = %g, want 0", got)
	}

	// Checkerboard: 50 unaccessed cells, largest chunk 1:
	// Frag = (1 - 1/50) * 100 = 98.
	b = NewBitmap(100)
	for i := 0; i < 100; i += 2 {
		b.Set(i)
	}
	if got := bitmapSummary(b).fragPct; got != 98 {
		t.Errorf("checkerboard fragmentation = %g, want 98", got)
	}

	// Fully accessed: nothing to shrink, fragmentation 0 by convention.
	b = NewBitmap(10)
	b.SetRange(0, 9)
	if got := bitmapSummary(b).fragPct; got != 0 {
		t.Errorf("full coverage fragmentation = %g", got)
	}
}

func TestAccessedPct(t *testing.T) {
	b := NewBitmap(200)
	b.SetRange(0, 49)
	if got := bitmapSummary(b).accessedPct; got != 25 {
		t.Errorf("AccessedPct = %g", got)
	}
	if got := bitmapSummary(NewBitmap(0)).accessedPct; got != 100 {
		t.Errorf("empty-object AccessedPct = %g, want 100 (nothing wasted)", got)
	}
}

// TestBitmapPropertyVsMap compares against a map-based reference.
func TestBitmapPropertyVsMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		b := NewBitmap(n)
		ref := map[int]bool{}
		for i := 0; i < 200; i++ {
			x := rng.Intn(n)
			b.Set(x)
			ref[x] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		// LargestZeroRun cross-check.
		best, cur := 0, 0
		for i := 0; i < n; i++ {
			if ref[i] {
				cur = 0
			} else {
				cur++
				if cur > best {
					best = cur
				}
			}
		}
		return b.LargestZeroRun() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapRangeOpsPropertyVsMap drives random Set/Reset ranges through
// the word-level implementations and a map-based reference, then compares
// every derived metric (the ranges deliberately straddle word boundaries).
func TestBitmapRangeOpsPropertyVsMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 1
		b := NewBitmap(n)
		ref := map[int]bool{}
		for i := 0; i < 30; i++ {
			lo, hi := rng.Intn(n), rng.Intn(n)
			if lo > hi {
				lo, hi = hi, lo
			}
			set := rng.Intn(3) != 0 // bias toward Set so bitmaps are non-trivial
			if set {
				b.SetRange(lo, hi)
			} else {
				b.ResetRange(lo, hi)
			}
			for e := lo; e <= hi; e++ {
				if set {
					ref[e] = true
				} else {
					delete(ref, e)
				}
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		first, last := -1, -1
		for i := 0; i < n; i++ {
			if ref[i] {
				if first == -1 {
					first = i
				}
				last = i
			}
		}
		wantContig := first != -1 && len(ref) == last-first+1
		if b.Contiguous() != wantContig {
			return false
		}
		best, cur := 0, 0
		for i := 0; i < n; i++ {
			if ref[i] {
				cur = 0
			} else if cur++; cur > best {
				best = cur
			}
		}
		return b.LargestZeroRun() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
