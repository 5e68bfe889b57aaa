// Package workloads re-implements, on the GPU simulator, the twelve
// programs the paper evaluates: Rodinia huffman and dwt2d, PolyBench 2MM,
// 3MM, GramSchmidt and BICG, a PyTorch-style convolution stack on a caching
// allocator, Laghos, Darknet (YOLO inference), XSBench, MiniMDock, and the
// CUDA SDK simpleMultiCopy sample — plus two traffic-bound companions for
// the cost model's uncoalesced-access extension, the CUDA SDK
// matrixTranspose and particles samples.
//
// Each workload has two variants:
//
//   - VariantNaive reproduces the allocation and access structure of the
//     original program, including the memory inefficiencies the paper's
//     Table 1 reports for it;
//   - VariantOptimized applies exactly the paper's fixes (each a handful of
//     source lines, per Table 4) so the peak-reduction and speedup
//     experiments can compare the two.
//
// Workloads perform real computation over real device bytes — a huffman
// encoder really encodes, the matrix kernels really multiply — so that
// data-dependent accesses follow the data as in the original programs and
// optimized variants can be validated against naive results.
package workloads

import (
	"fmt"
	"sort"

	"drgpum/internal/gpu"
	"drgpum/internal/pool"
)

// Variant selects the program version.
type Variant uint8

const (
	// VariantNaive is the original program with its inefficiencies.
	VariantNaive Variant = iota
	// VariantOptimized applies the paper's fixes.
	VariantOptimized
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantOptimized {
		return "optimized"
	}
	return "naive"
}

// Host is the profiler surface a workload may use: object annotation (so
// reports carry the source names the paper uses) and custom-pool
// integration. A nil-safe no-op implementation is used for native runs.
type Host interface {
	// Annotate labels the live object based at ptr.
	Annotate(ptr gpu.DevicePtr, label string, elemSize uint32) bool
	// AttachPool integrates a custom memory allocator (paper §5.4).
	AttachPool(p pool.Observable)
}

// nopHost is the native-execution host: annotations go nowhere.
type nopHost struct{}

func (nopHost) Annotate(gpu.DevicePtr, string, uint32) bool { return false }
func (nopHost) AttachPool(pool.Observable)                  {}

// NopHost returns a Host that ignores everything (for unprofiled runs).
func NopHost() Host { return nopHost{} }

// Workload is one benchmark program.
type Workload struct {
	// Name is the registry key, e.g. "rodinia/huffman".
	Name string
	// Domain is the application domain of the paper's Table 4.
	Domain string
	// IntraKernels lists the kernels the paper monitors for intra-object
	// analysis (the kernel-whitelist of §5.5). Empty means the workload was
	// only analyzed at object level.
	IntraKernels []string
	// Run executes the workload on the device.
	Run func(dev *gpu.Device, host Host, v Variant) error
}

// registry holds all registered workloads (init order).
var registry []*Workload

// tableOrder is the paper's Table 1 row order.
var tableOrder = []string{
	"rodinia/huffman", "rodinia/dwt2d",
	"polybench/2mm", "polybench/3mm", "polybench/gramschmidt", "polybench/bicg",
	"pytorch", "laghos", "darknet", "xsbench", "minimdock", "simplemulticopy",
	"sdk/matrixtranspose", "sdk/particles",
}

// register adds a workload at package init time.
func register(w *Workload) { registry = append(registry, w) }

// All returns every workload in the paper's Table 1 order.
func All() []*Workload {
	out := make([]*Workload, 0, len(registry))
	for _, name := range tableOrder {
		for _, w := range registry {
			if w.Name == name {
				out = append(out, w)
				break
			}
		}
	}
	// Any workload not in the canonical list (e.g. registered by tests)
	// goes at the end in registration order.
	for _, w := range registry {
		found := false
		for _, name := range tableOrder {
			if w.Name == name {
				found = true
				break
			}
		}
		if !found {
			out = append(out, w)
		}
	}
	return out
}

// Names returns all registry keys in Table 1 order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}

// ByName finds a registered workload.
func ByName(name string) (*Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Extras returns the unregistered demonstration workloads — the synthetic
// kitchen-sink and the planted-bug memcheck target — which every sweep over
// the paper's table deliberately excludes.
func Extras() []*Workload {
	return []*Workload{Synthetic(), KnownBad()}
}

// Lookup finds a workload by name among the registered set and the extras
// (the CLI resolves user-supplied names through this).
func Lookup(name string) (*Workload, bool) {
	if w, ok := ByName(name); ok {
		return w, true
	}
	for _, w := range Extras() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// SortedNames returns all names alphabetically (for CLI help).
func SortedNames() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// runner wraps a device with error-accumulating helpers so workload bodies
// read like the CUDA programs they mirror: the first failing API poisons
// the run and Err reports it.
type runner struct {
	dev  *gpu.Device
	host Host
	err  error
}

func newRunner(dev *gpu.Device, host Host) *runner {
	if host == nil {
		host = NopHost()
	}
	return &runner{dev: dev, host: host}
}

// Err returns the first error any helper hit.
func (r *runner) Err() error { return r.err }

// fail records the first error.
func (r *runner) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// malloc allocates and annotates a device object.
func (r *runner) malloc(label string, size uint64, elemSize uint32) gpu.DevicePtr {
	if r.err != nil {
		return 0
	}
	ptr, err := r.dev.Malloc(size)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", label, err))
		return 0
	}
	r.host.Annotate(ptr, label, elemSize)
	return ptr
}

// free releases a device object.
func (r *runner) free(ptr gpu.DevicePtr) {
	if r.err != nil || ptr == 0 {
		return
	}
	r.fail(r.dev.Free(ptr))
}

// h2d copies host data to the device on the given stream (nil = sync).
func (r *runner) h2d(dst gpu.DevicePtr, src []byte, s *gpu.Stream) {
	if r.err != nil {
		return
	}
	r.fail(r.dev.MemcpyHtoD(dst, src, s))
}

// d2h copies device data back to the host.
func (r *runner) d2h(dst []byte, src gpu.DevicePtr, s *gpu.Stream) {
	if r.err != nil {
		return
	}
	r.fail(r.dev.MemcpyDtoH(dst, src, s))
}

// memset fills device memory.
func (r *runner) memset(ptr gpu.DevicePtr, v byte, n uint64, s *gpu.Stream) {
	if r.err != nil {
		return
	}
	r.fail(r.dev.Memset(ptr, v, n, s))
}

// launch runs a kernel body.
func (r *runner) launch(name string, s *gpu.Stream, grid, block gpu.Dim3, body func(ctx *gpu.ExecContext)) {
	if r.err != nil {
		return
	}
	r.fail(r.dev.LaunchFunc(s, name, grid, block, body))
}

// f32bytes serializes float32 values little-endian, matching the device's
// typed accessors.
func f32bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		putF32(out[i*4:], v)
	}
	return out
}

// f64bytes serializes float64 values.
func f64bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		putF64(out[i*8:], v)
	}
	return out
}

// u32bytes serializes uint32 values.
func u32bytes(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		putU32(out[i*4:], v)
	}
	return out
}
