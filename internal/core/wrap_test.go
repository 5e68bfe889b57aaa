package core

import (
	"io"
	"strings"
	"testing"
)

// refWrap is the text report's former soft wrap, kept as the reference
// for appendWrapped: it splits s with strings.Fields and rebuilds it in a
// fresh strings.Builder.
func refWrap(s string, width int, contPrefix string) string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return s
	}
	var b strings.Builder
	line := 0
	for i, wd := range words {
		if i > 0 {
			if line+1+len(wd) > width {
				b.WriteString("\n")
				b.WriteString(contPrefix)
				line = 0
			} else {
				b.WriteByte(' ')
				line++
			}
		}
		b.WriteString(wd)
		line += len(wd)
	}
	return b.String()
}

// TestAppendWrappedMatchesReference checks appendWrapped against refWrap
// on whitespace runs, Unicode spaces, inputs without words and words
// wider than the line, at the report's width and at narrower ones.
func TestAppendWrappedMatchesReference(t *testing.T) {
	long := strings.Repeat("x", 80)
	cases := []struct{ name, s string }{
		{"empty", ""},
		{"all-space", " \t\n\r\v\f  "},
		{"one-word", "free"},
		{"space-runs", "free   the  buffer\tafter\t\tits last\n\nuse, then   reuse"},
		{"leading-and-trailing", "  \t free the buffer \n "},
		{"no-break-space", "free\u00a0the buffer\u00a0\u00a0now"},
		{"em-space", "free\u2003the\u2003\u2003buffer \u2003 now"},
		{"only-unicode-spaces", "\u00a0\u2003\u0085"},
		{"non-space-unicode", "réduire la taille — de moitié, 半分"},
		{"invalid-utf8", "free \xff\xfe the \xc2 buffer\xe2\x80"},
		{"long-words", long + " a " + long + " " + long + " b"},
		{"exact-width", strings.Repeat("w", 71) + " x " + strings.Repeat("y", 72)},
		{"suggestion", "Allocate d_tmp after the last use of d_in and free it before the next " +
			"kernel launch; the two buffers are never live together, so one allocation can serve both " +
			"and the peak drops by the smaller of the two."},
	}
	const pad = "                  "
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, width := range []int{72, 16, 1, 0} {
				for _, prefix := range []string{pad, ""} {
					want := "head:" + refWrap(c.s, width, prefix)
					if got := string(appendWrapped([]byte("head:"), c.s, width, prefix)); got != want {
						t.Errorf("width %d, prefix %q:\n got %q\nwant %q", width, prefix, got, want)
					}
				}
			}
			if got, want := string(appendSuggestion(nil, c.s)), "      suggestion: "+refWrap(c.s, 72, pad)+"\n"; got != want {
				t.Errorf("suggestion line:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestSuggestionLineAllocatesNothing checks that rendering a finding's
// suggestion line into the reused buffer allocates nothing once the
// buffer has grown to fit it.
func TestSuggestionLineAllocatesNothing(t *testing.T) {
	s := "Allocate d_tmp after the last use of d_in and free it before the next kernel " +
		"launch; the two buffers are never live together, so one allocation can serve both."
	var line []byte
	allocs := testing.AllocsPerRun(100, func() {
		line = appendSuggestion(line[:0], s)
		_, _ = io.Discard.Write(line)
	})
	if allocs != 0 {
		t.Errorf("a rendered suggestion line allocates %.1f times, want 0", allocs)
	}
}
