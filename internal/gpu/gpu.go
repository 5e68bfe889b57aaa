// Package gpu implements a deterministic GPU runtime simulator.
//
// The simulator stands in for the CUDA driver/runtime that DrGPUM (ASPLOS
// 2023) profiles on real NVIDIA hardware. It provides the same observable
// surface the paper's analyses consume:
//
//   - the five GPU API classes the paper tracks (memory allocation,
//     deallocation, copy, set, and kernel launch),
//   - streams with in-order execution per stream,
//   - per-memory-instruction visibility for instrumented kernels, and
//   - a latency/bandwidth cost model so shared-vs-global placement decisions
//     change simulated execution time the way they do on real devices.
//
// Everything is deterministic: stream concurrency is modelled with per-stream
// simulated clocks rather than goroutines, so a given program produces a
// byte-for-byte identical event stream on every run.
package gpu

import "fmt"

// DevicePtr is a virtual device address. Address 0 is the null pointer and is
// never returned by Malloc.
type DevicePtr uint64

// MemSpace identifies which simulated memory space an access touches.
type MemSpace uint8

const (
	// SpaceGlobal is device global memory (backed by the device allocator).
	SpaceGlobal MemSpace = iota
	// SpaceShared is per-launch scratch memory (the analog of CUDA shared
	// memory). Shared accesses are cheap under the cost model and are never
	// attributed to data objects.
	SpaceShared
)

// String returns the space name.
func (s MemSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	default:
		return fmt.Sprintf("space(%d)", uint8(s))
	}
}

// AccessKind says whether a memory instruction reads or writes.
type AccessKind uint8

const (
	// AccessRead is a load.
	AccessRead AccessKind = iota
	// AccessWrite is a store.
	AccessWrite
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == AccessWrite {
		return "write"
	}
	return "read"
}

// APIKind enumerates the GPU API classes the profiler observes. These are
// exactly the five classes in the paper's Definition footnote: "GPU APIs
// include memory allocation, deallocation, copy, and set, and kernel launch".
type APIKind uint8

const (
	// APIMalloc is a device memory allocation (cudaMalloc analog).
	APIMalloc APIKind = iota
	// APIFree is a device memory deallocation (cudaFree analog).
	APIFree
	// APIMemcpy is a memory copy (cudaMemcpy analog, any direction).
	APIMemcpy
	// APIMemset is a memory set (cudaMemset analog).
	APIMemset
	// APIKernel is a kernel launch.
	APIKernel
)

// String returns the GUI-style short name used in the paper's Figure 7
// (ALLOC, FREE, CPY, SET, KERL).
func (k APIKind) String() string {
	switch k {
	case APIMalloc:
		return "ALLOC"
	case APIFree:
		return "FREE"
	case APIMemcpy:
		return "CPY"
	case APIMemset:
		return "SET"
	case APIKernel:
		return "KERL"
	default:
		return fmt.Sprintf("API(%d)", uint8(k))
	}
}

// MemcpyKind is the direction of a memory copy.
type MemcpyKind uint8

const (
	// CopyHostToDevice copies host data into device memory.
	CopyHostToDevice MemcpyKind = iota
	// CopyDeviceToHost copies device data back to the host.
	CopyDeviceToHost
	// CopyDeviceToDevice copies between two device buffers.
	CopyDeviceToDevice
)

// String returns a short direction label.
func (k MemcpyKind) String() string {
	switch k {
	case CopyHostToDevice:
		return "H2D"
	case CopyDeviceToHost:
		return "D2H"
	case CopyDeviceToDevice:
		return "D2D"
	default:
		return fmt.Sprintf("copy(%d)", uint8(k))
	}
}

// Range is a half-open address interval [Addr, Addr+Size).
type Range struct {
	Addr DevicePtr
	Size uint64
}

// End returns the exclusive end address of the range.
func (r Range) End() DevicePtr { return r.Addr + DevicePtr(r.Size) }

// Contains reports whether addr lies inside the range.
func (r Range) Contains(addr DevicePtr) bool {
	return addr >= r.Addr && addr < r.End()
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	return r.Addr < o.End() && o.Addr < r.End()
}

// String formats the range as [addr, end).
func (r Range) String() string {
	return fmt.Sprintf("[0x%x, 0x%x)", uint64(r.Addr), uint64(r.End()))
}

// PatchLevel selects how much instrumentation the Sanitizer-analog applies.
// It mirrors DrGPUM's two analysis granularities plus native execution.
type PatchLevel uint8

const (
	// PatchNone runs kernels natively: no per-access work at all. This is
	// the Figure 6 baseline.
	PatchNone PatchLevel = iota
	// PatchAPI enables object-level analysis: every GPU API is intercepted
	// and kernels identify which data objects they touch via the GPU-side
	// hit-flag scheme of paper §5.5 (Figure 5), but individual accesses are
	// not streamed out.
	PatchAPI
	// PatchFull enables intra-object analysis: in addition to PatchAPI work,
	// every memory instruction of instrumented kernels is recorded.
	PatchFull
)

// String names the patch level.
func (p PatchLevel) String() string {
	switch p {
	case PatchNone:
		return "none"
	case PatchAPI:
		return "object-level"
	case PatchFull:
		return "intra-object"
	default:
		return fmt.Sprintf("patch(%d)", uint8(p))
	}
}

// MemAccess is one executed memory instruction, as surfaced to instrumentation
// at PatchFull. Size is the instruction's access width in bytes.
type MemAccess struct {
	Addr  DevicePtr
	Size  uint32
	Kind  AccessKind
	Space MemSpace
	// Tag is the object tag of the hit-table row the device resolved the
	// access to, as the live-ranges provider handed it out (see
	// Device.SetLiveRangesProvider). The device sets it only on a launch
	// whose rows are pairwise disjoint, where an address lies in at most
	// one row. The zero value means "not resolved": shared-memory
	// accesses, accesses outside every row, host-trace launches, launches
	// with overlapping rows, providers without tags and hand-built
	// records all carry 0, and a consumer that needs the object resolves
	// the address itself.
	Tag uint32
	// row is the hit-table row the device resolved the access to, plus
	// one, so that 0 means none, as for Tag. The pipeline consumer charges
	// the cost model from it (see pipeline.go); a record pushed only for
	// the model never reaches the hooks.
	row int32
}

// Dim3 is a CUDA-style launch dimension.
type Dim3 struct{ X, Y, Z int }

// Count returns the number of elements covered by the dimension, treating
// zero components as one.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

// Dim1 builds a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }
