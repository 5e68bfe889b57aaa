package callpath

import "strings"

// Resolver resolves interned path IDs into frames, leaf first (nil for the
// zero ID). The live Unwinder implements it for in-process profiles; Frozen
// implements it for profiles loaded from disk, where program counters are
// meaningless and only the resolved frames survive.
type Resolver interface {
	Frames(id PathID) []Frame
}

var (
	_ Resolver = (*Unwinder)(nil)
	_ Resolver = Frozen(nil)
)

// Frozen is a Resolver over pre-resolved frames (a loaded profile): the
// frames each path was saved with, cut or not.
type Frozen map[PathID][]Frame

// Frames implements Resolver.
func (f Frozen) Frames(id PathID) []Frame { return f[id] }

// Leaf returns a path's innermost frame: the program's call into the
// simulated runtime.
func Leaf(r Resolver, id PathID) (Frame, bool) {
	frames := r.Frames(id)
	if len(frames) == 0 {
		return Frame{}, false
	}
	return frames[0], true
}

// Format renders a path as a multi-line string, leaf first, indenting each
// caller one step — the layout DrGPUM's GUI uses in its detail pane. Every
// export prints paths with it.
func Format(r Resolver, id PathID) string {
	var b strings.Builder
	for i, fr := range r.Frames(id) {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(strings.Repeat("  ", i))
		b.WriteString(fr.String())
	}
	return b.String()
}
