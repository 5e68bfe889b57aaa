package memcheck

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"drgpum/internal/callpath"
	"drgpum/internal/gpu"
)

// ObjectRef identifies the allocation an issue is about. Seq is 0 for wild
// accesses that hit no live or quarantined allocation.
type ObjectRef struct {
	Ptr   gpu.DevicePtr
	Size  uint64
	Label string
	Seq   uint64
}

// Issue is one deduplicated memory-safety finding.
type Issue struct {
	// Class is the bug class.
	Class Class
	// Kind is the access direction (meaningful for OOB and use-after-free;
	// uninitialized reads are always reads; unset for leaks).
	Kind gpu.AccessKind
	// Addr and AccessSize describe the first observed occurrence.
	Addr       gpu.DevicePtr
	AccessSize uint32
	// Count is how many accesses folded into this issue (1 for leaks).
	Count uint64
	// Kernel is the kernel that performed the access (empty for leaks).
	Kernel string
	// Object is the allocation involved.
	Object ObjectRef
	// UnwrittenBytes is, for uninitialized reads, how many bytes of the
	// object had never been written when the first bad read happened.
	UnwrittenBytes uint64
	// AllocPath, FreePath and AccessPath are rendered call paths (allocation
	// site, free site for use-after-free, kernel launch site for accesses).
	AllocPath  string
	FreePath   string
	AccessPath string
}

// Report is an immutable snapshot of the checker's findings.
type Report struct {
	// Issues is sorted by (class, allocation order, kernel, access kind).
	Issues []Issue
	// Allocs and Frees count the driver allocations and frees observed.
	Allocs uint64
	Frees  uint64
	// LeakBytes is the total requested size of leaked allocations.
	LeakBytes uint64
	// AccessesChecked counts kernel reads checked against written shadows.
	AccessesChecked uint64
}

// Clean reports whether no issues were found.
func (r *Report) Clean() bool { return len(r.Issues) == 0 }

// Report snapshots the checker's findings: the accumulated access issues
// plus a leak scan over allocations still live right now. Taking a report
// does not mutate the checker, so a later snapshot reflects frees that
// happened in between.
func (c *Checker) Report() *Report {
	sp := c.scanNode.Start()
	defer sp.End()
	r := &Report{
		Allocs:          uint64(len(c.order)),
		Frees:           c.freeLog,
		AccessesChecked: c.checked,
	}
	for _, is := range c.issues {
		r.Issues = append(r.Issues, c.export(is))
	}
	for _, a := range c.order {
		if a.freed {
			continue
		}
		r.Issues = append(r.Issues, Issue{
			Class:     ClassLeak,
			Count:     1,
			Object:    objRef(a),
			AllocPath: callpath.Format(c.paths, a.allocPath),
		})
		r.LeakBytes += a.size
	}
	sort.Slice(r.Issues, func(i, j int) bool {
		a, b := r.Issues[i], r.Issues[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Object.Seq != b.Object.Seq {
			return a.Object.Seq < b.Object.Seq
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Kind < b.Kind
	})
	return r
}

// export resolves an internal issue into its public form.
func (c *Checker) export(is *issue) Issue {
	out := Issue{
		Class:          is.key.class,
		Kind:           is.key.kind,
		Addr:           is.addr,
		AccessSize:     is.accessSize,
		Count:          is.count,
		Kernel:         is.key.kernel,
		UnwrittenBytes: is.unwritten,
		AccessPath:     callpath.Format(c.paths, is.accessPath),
	}
	if is.obj != nil {
		out.Object = objRef(is.obj)
		out.AllocPath = callpath.Format(c.paths, is.obj.allocPath)
		if is.obj.freed {
			out.FreePath = callpath.Format(c.paths, is.obj.freePath)
		}
	}
	return out
}

func objRef(a *allocation) ObjectRef {
	return ObjectRef{Ptr: a.ptr, Size: a.size, Label: a.label, Seq: a.seq}
}

// name renders the object for report text: its label when annotated, else
// its allocation ordinal.
func (o ObjectRef) name() string {
	if o.Label != "" {
		return fmt.Sprintf("%q", o.Label)
	}
	return fmt.Sprintf("alloc #%d", o.Seq)
}

// Render writes the human-readable report. Output is deterministic:
// byte-identical across runs of the same program.
func (r *Report) Render(w io.Writer) error {
	if r.Clean() {
		_, err := fmt.Fprintf(w, "memcheck: no issues found (%d allocations, %d frees, %d reads checked)\n",
			r.Allocs, r.Frees, r.AccessesChecked)
		return err
	}
	if _, err := fmt.Fprintf(w, "memcheck: %s\n", r.headline()); err != nil {
		return err
	}
	for i, is := range r.Issues {
		if _, err := fmt.Fprintf(w, "\n[%d] %s\n", i+1, is.title()); err != nil {
			return err
		}
		for _, l := range is.detail() {
			if _, err := fmt.Fprintf(w, "    %s\n", l); err != nil {
				return err
			}
		}
		if err := writePath(w, "kernel launched at:", is.AccessPath); err != nil {
			return err
		}
		if err := writePath(w, "allocated at:", is.AllocPath); err != nil {
			return err
		}
		if err := writePath(w, "freed at:", is.FreePath); err != nil {
			return err
		}
	}
	return nil
}

// headline summarizes issue counts by class in class order.
func (r *Report) headline() string {
	counts := make(map[Class]int)
	for _, is := range r.Issues {
		counts[is.Class]++
	}
	var parts []string
	for _, cl := range []Class{ClassOOB, ClassUseAfterFree, ClassUninitRead, ClassLeak} {
		if n := counts[cl]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, cl))
		}
	}
	return fmt.Sprintf("%d issue(s): %s", len(r.Issues), strings.Join(parts, ", "))
}

// title is the issue's first line.
func (is Issue) title() string {
	switch is.Class {
	case ClassLeak:
		return fmt.Sprintf("leak: %s (%d bytes) never freed", is.Object.name(), is.Object.Size)
	case ClassUninitRead:
		return fmt.Sprintf("uninitialized read from %s (%d bytes)", is.Object.name(), is.Object.Size)
	default:
		return fmt.Sprintf("%s %s of %d bytes at 0x%x", is.Class, is.Kind, is.AccessSize, uint64(is.Addr))
	}
}

// detail lists the issue's explanatory lines.
func (is Issue) detail() []string {
	var out []string
	switch is.Class {
	case ClassOOB:
		if is.Object.Seq == 0 {
			out = append(out, "address is in no live or freed allocation (wild access)")
		} else {
			out = append(out, fmt.Sprintf("%s %s (%d bytes at 0x%x)",
				relation(is.Addr, is.Object), is.Object.name(), is.Object.Size, uint64(is.Object.Ptr)))
		}
	case ClassUseAfterFree:
		out = append(out, fmt.Sprintf("inside freed %s (%d bytes at 0x%x)",
			is.Object.name(), is.Object.Size, uint64(is.Object.Ptr)))
	case ClassUninitRead:
		out = append(out, fmt.Sprintf("%d of %d bytes were never written; first read of %d bytes at 0x%x",
			is.UnwrittenBytes, is.Object.Size, is.AccessSize, uint64(is.Addr)))
	case ClassLeak:
		return nil
	}
	out = append(out, fmt.Sprintf("%d access(es) in kernel %s", is.Count, is.Kernel))
	return out
}

// relation describes where a faulting address sits relative to its object.
func relation(addr gpu.DevicePtr, o ObjectRef) string {
	switch {
	case addr >= o.Ptr+gpu.DevicePtr(o.Size):
		return fmt.Sprintf("%d byte(s) past the end of", uint64(addr-o.Ptr)-o.Size)
	case addr < o.Ptr:
		return fmt.Sprintf("%d byte(s) before", uint64(o.Ptr-addr))
	default:
		return "straddles the end of" // in-bounds start, spilling size
	}
}

// writePath writes a labelled call path, each frame indented under the
// label. Empty paths (e.g. no free site on an OOB issue) print nothing.
func writePath(w io.Writer, label, path string) error {
	if path == "" {
		return nil
	}
	if _, err := fmt.Fprintf(w, "    %s\n", label); err != nil {
		return err
	}
	for _, line := range strings.Split(path, "\n") {
		if _, err := fmt.Fprintf(w, "      %s\n", line); err != nil {
			return err
		}
	}
	return nil
}
