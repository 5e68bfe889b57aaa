// Package callpath captures and interns host call paths.
//
// DrGPUM unwinds the call path of every GPU API invocation with libunwind and
// later maps program-counter addresses to source lines via DWARF (paper §4,
// "offline analyzer"). In Go both steps collapse into one facility:
// runtime.Callers plus runtime.CallersFrames yield source-attributed frames
// directly. The package stores unwound paths in a calling-context tree (CCT)
// and hands out small stable IDs, so a path captured millions of times costs
// one integer per record.
//
// A captured path holds the program's frames only, cut by one rule when it
// is captured (see Capture), so every export formats paths as they are.
package callpath

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// PathID identifies an interned call path. The zero value means "no path".
type PathID uint32

// Frame is one source-attributed stack frame.
type Frame struct {
	// Function is the fully-qualified function name.
	Function string
	// File is the source file path.
	File string
	// Line is the source line.
	Line int
}

// String formats the frame as func (file:line).
func (f Frame) String() string {
	file := f.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s (%s:%d)", f.Function, file, f.Line)
}

// maxDepth bounds the frames one capture unwinds, counted from Capture's
// caller.
const maxDepth = 64

// frameKind is a frame's role in the cut Capture makes.
type frameKind uint8

const (
	kindProgram frameKind = iota
	// kindSimulated frames play the CUDA runtime's part: the device API
	// (internal/gpu), the caching allocators in front of cudaMalloc
	// (internal/pool) and cudaMallocManaged (internal/unified).
	kindSimulated
	kindGoRuntime // package runtime
)

// pcFrame is a program counter's resolved frame and its kind.
type pcFrame struct {
	frame Frame
	kind  frameKind
}

// pcFrames caches every program counter's pcFrame for the process: what a
// counter resolves to never changes, and every profile meets mostly the
// same counters, so each is resolved and classified once.
var pcFrames sync.Map // uintptr -> pcFrame

// node is a CCT node: a program counter plus its parent.
type node struct {
	parent PathID
	pc     uintptr
}

// Unwinder interns call paths into a calling-context tree. It is not safe
// for concurrent use; the profiler drives it from a single goroutine, like
// the rest of the collection pipeline.
type Unwinder struct {
	nodes []node // nodes[0] is the root sentinel
	// children maps (parent, pc) to a node id for O(1) interning.
	children map[childKey]PathID
	// pcBuf is reused across captures.
	pcBuf []uintptr
}

type childKey struct {
	parent PathID
	pc     uintptr
}

// NewUnwinder creates an empty calling-context tree.
func NewUnwinder() *Unwinder {
	return &Unwinder{
		nodes:    []node{{}},
		children: make(map[childKey]PathID),
		pcBuf:    make([]uintptr, maxDepth),
	}
}

// Enter runs run, the program, and marks on the stack where the program was
// entered: paths captured while run executes stop at the first frame inside
// it. It returns run's error.
//
//go:noinline
func Enter(run func() error) error {
	return run()
}

// enterPC is the program counter of Enter's frame, the same on every stack
// that holds one: Enter is never inlined and calls run from one place.
var enterPC = func() (pc uintptr) {
	_ = Enter(func() error {
		var pcs [1]uintptr
		runtime.Callers(2, pcs[:]) // skip runtime.Callers and this closure
		pc = pcs[0]
		return nil
	})
	return pc
}()

// Capture unwinds the calling goroutine's stack and returns the interned
// path of the program's frames, cut by one rule:
//
//   - The leaf is the program's call into the simulated CUDA runtime (the
//     first frame outside it); the runtime's frames, and the hook frames
//     inside them that called Capture, are dropped. With no runtime frame on
//     the stack the leaf is Capture's caller.
//   - The root is the first frame of the program Enter runs; Enter, the
//     closure it calls and every frame outside it are dropped. With no Enter
//     on the stack only the Go runtime's outermost frames (runtime.main,
//     runtime.goexit) are, so a program's path ends at main.main.
//
// No frame outside the cut is interned, so path IDs depend on the program
// alone, not on the goroutine or stack depth that entered it.
func (u *Unwinder) Capture() PathID {
	// 2 skips runtime.Callers and Capture itself.
	pcs := u.pcBuf[:runtime.Callers(2, u.pcBuf)]
	lo := 0
	for lo < len(pcs) && lookup(pcs[lo]).kind != kindSimulated {
		lo++
	}
	if lo == len(pcs) {
		lo = 0
	}
	for lo < len(pcs) && lookup(pcs[lo]).kind == kindSimulated {
		lo++
	}
	hi := lo
	for hi < len(pcs) && pcs[hi] != enterPC {
		hi++
	}
	if hi < len(pcs) {
		hi-- // the closure Enter runs
	} else {
		for hi > lo && lookup(pcs[hi-1]).kind == kindGoRuntime {
			hi--
		}
	}
	// Intern from the outermost frame down so shared prefixes share nodes.
	id := PathID(0)
	for i := hi - 1; i >= lo; i-- {
		id = u.intern(id, pcs[i])
	}
	return id
}

// intern returns the node for (parent, pc), creating it if needed.
func (u *Unwinder) intern(parent PathID, pc uintptr) PathID {
	k := childKey{parent: parent, pc: pc}
	if id, ok := u.children[k]; ok {
		return id
	}
	id := PathID(len(u.nodes))
	u.nodes = append(u.nodes, node{parent: parent, pc: pc})
	u.children[k] = id
	return id
}

// Frames resolves a path ID into frames, leaf first. A zero ID yields nil.
func (u *Unwinder) Frames(id PathID) []Frame {
	var out []Frame
	for id != 0 {
		n := u.nodes[id]
		out = append(out, lookup(n.pc).frame)
		id = n.parent
	}
	return out
}

// lookup maps a pc to its resolved frame and kind, through pcFrames.
func lookup(pc uintptr) pcFrame {
	if f, ok := pcFrames.Load(pc); ok {
		return f.(pcFrame)
	}
	rf, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	f := pcFrame{frame: Frame{Function: rf.Function, File: rf.File, Line: rf.Line}}
	switch fn := rf.Function; {
	case strings.HasPrefix(fn, "runtime."):
		f.kind = kindGoRuntime
	case strings.HasPrefix(fn, "drgpum/internal/gpu."), strings.HasPrefix(fn, "drgpum/internal/pool."),
		strings.HasPrefix(fn, "drgpum/internal/unified."):
		f.kind = kindSimulated
	}
	pcFrames.Store(pc, f)
	return f
}
