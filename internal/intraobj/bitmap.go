// Package intraobj implements DrGPUM's microscopic intra-object analysis
// (paper §3.2, §5.2): per-element access bitmaps and frequency maps over
// each data object, and the three detectors built on them — overallocation,
// structured access and non-uniform access frequency.
//
// Following the paper's implementation, intra-object analysis consumes the
// per-memory-instruction stream of instrumented kernels; memory copies and
// sets are not memory instructions and do not contribute (this is why
// XSBench's GSD.index_grid can be 95% unaccessed even though a copy
// initialized all of it).
package intraobj

import "math/bits"

// Bitmap is a dense bit set over a data object's elements. Bit i is set
// when element i has been accessed.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates a bitmap over n elements, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of elements the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks element i as accessed. Out-of-range indices are ignored (a
// faulting access does not belong to the object).
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports whether element i is marked.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetRange marks elements [lo, hi] inclusive, operating on whole 64-bit
// words: partial masks at the edges, full-word stores in between. Ranged
// accesses on the ingestion hot path depend on this being O(words), not
// O(elements).
func (b *Bitmap) SetRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi >= b.n {
		hi = b.n - 1
	}
	if lo > hi {
		return
	}
	wLo, wHi := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if wLo == wHi {
		b.words[wLo] |= loMask & hiMask
		return
	}
	b.words[wLo] |= loMask
	for w := wLo + 1; w < wHi; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[wHi] |= hiMask
}

// ResetRange clears elements [lo, hi] inclusive, word-at-a-time like
// SetRange. The recorder uses it to wipe only the window an API touched
// instead of the whole map.
func (b *Bitmap) ResetRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi >= b.n {
		hi = b.n - 1
	}
	if lo > hi {
		return
	}
	wLo, wHi := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if wLo == wHi {
		b.words[wLo] &^= loMask & hiMask
		return
	}
	b.words[wLo] &^= loMask
	for w := wLo + 1; w < wHi; w++ {
		b.words[w] = 0
	}
	b.words[wHi] &^= hiMask
}

// AllSet reports whether every element in [lo, hi] inclusive is marked.
// Like SetRange it operates word-at-a-time: partial masks at the edges,
// full-word compares in between. Out-of-range elements count as unmarked,
// and an inverted range is vacuously true. Memcheck's uninitialized-read
// check runs this per kernel read, so it must be O(words).
func (b *Bitmap) AllSet(lo, hi int) bool {
	if lo > hi {
		return true
	}
	if lo < 0 || hi >= b.n {
		return false
	}
	wLo, wHi := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if wLo == wHi {
		m := loMask & hiMask
		return b.words[wLo]&m == m
	}
	if b.words[wLo]&loMask != loMask {
		return false
	}
	for w := wLo + 1; w < wHi; w++ {
		if b.words[w] != ^uint64(0) {
			return false
		}
	}
	return b.words[wHi]&hiMask == hiMask
}

// Count returns the number of marked elements.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Overlaps reports whether any element is marked in both bitmaps. The
// structured-access detector uses this for the pairwise-disjoint check.
func (b *Bitmap) Overlaps(o *Bitmap) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Or merges o into b.
func (b *Bitmap) Or(o *Bitmap) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] |= o.words[i]
	}
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Empty reports whether no bit is set.
func (b *Bitmap) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Contiguous reports whether the set bits form one gap-free run (and the
// bitmap is non-empty). The structured-access detector requires each API's
// touched region to be a contiguous slice of the object. Runs word-at-a-
// time: first/last set bits come from trailing/leading zero counts, and the
// popcount between them must fill the span.
func (b *Bitmap) Contiguous() bool {
	first, last := -1, -1
	count := 0
	for w, word := range b.words {
		if word == 0 {
			continue
		}
		if first == -1 {
			first = w<<6 + bits.TrailingZeros64(word)
		}
		last = w<<6 + 63 - bits.LeadingZeros64(word)
		count += bits.OnesCount64(word)
	}
	if first == -1 {
		return false
	}
	return count == last-first+1
}

// LargestZeroRun returns the length of the longest run of unmarked
// elements — the "largest unaccessed memory chunk" of the paper's
// fragmentation metric (Equation 1). All-zero words are consumed whole; a
// mixed word is walked one run at a time by trailing-zero counts. Bits past
// the last element count as marked, so no run extends beyond it.
func (b *Bitmap) LargestZeroRun() int {
	best, cur := 0, 0
	for w, word := range b.words {
		if valid := b.n - w<<6; valid < 64 {
			word |= ^uint64(0) << uint(valid)
		}
		if word == 0 {
			cur += 64
			continue
		}
		// The low zeros extend the run carried in from earlier words.
		tz := bits.TrailingZeros64(word)
		best = max(best, cur+tz)
		// Interior runs lie between the word's runs of ones: drop a run of
		// ones, then measure the zeros above it, until no set bit is left.
		x := word >> uint(tz)
		for {
			x >>= uint(bits.TrailingZeros64(^x))
			if x == 0 {
				break
			}
			z := bits.TrailingZeros64(x)
			best = max(best, z)
			x >>= uint(z)
		}
		// The high zeros start the run carried into the next word.
		cur = bits.LeadingZeros64(word)
	}
	return max(best, cur)
}
