package depgraph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"drgpum/internal/gpu"
	"drgpum/internal/profile"
	"drgpum/internal/trace"
)

// buildTrace runs a program against a collector-backed device and returns
// the trace (topological timestamps not yet assigned).
func buildTrace(program func(dev *gpu.Device)) *trace.Trace {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)
	program(dev)
	return c.Trace()
}

func TestSingleStreamOrderIsInvocationOrder(t *testing.T) {
	tr := buildTrace(func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		_ = dev.Memset(p, 0, 256, nil)
		_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			ctx.StoreU32(p, 1)
		})
		_ = dev.Free(p)
	})
	g := Annotate(tr).Graph()
	for i, a := range tr.APIs {
		if a.Topo != uint64(i) {
			t.Errorf("API %d has topo %d; single-stream order must equal invocation order", i, a.Topo)
		}
	}
	if err := matchReference(tr, g); err != nil {
		t.Error(err)
	}
}

// TestFigure4DependencyGraph reproduces the paper's Figure 4 structure:
// two streams with their own API chains plus cross-stream data
// dependencies, checked for edge kinds and concurrent (shared) timestamps.
func TestFigure4DependencyGraph(t *testing.T) {
	var idxKernel0, idxCpy1, idxKernel1 uint64
	tr := buildTrace(func(dev *gpu.Device) {
		s1 := dev.CreateStream()
		o1, _ := dev.Malloc(256)                       // 0: ALLOC o1 (stream 0)
		_ = dev.MemcpyHtoD(o1, make([]byte, 256), nil) // 1: CPY writes o1
		o2, _ := dev.Malloc(256)                       // 2: ALLOC o2
		// 3: kernel on stream 0 reads o1, writes o2.
		_ = dev.LaunchFunc(nil, "k0", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			v := ctx.LoadU32(o1)
			ctx.StoreU32(o2, v+1)
		})
		idxKernel0 = 3
		// 4: async copy on stream 1 into o1 would be a WAR on o1's reader;
		// here: a second object filled on stream 1.
		o3, _ := dev.Malloc(256)                      // 4
		_ = dev.MemcpyHtoD(o3, make([]byte, 256), s1) // 5: CPY (stream 1)
		idxCpy1 = 5
		// 6: kernel on stream 1 reads o3 (RAW from 5).
		_ = dev.LaunchFunc(s1, "k1", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			_ = ctx.LoadU32(o3)
		})
		idxKernel1 = 6
		// 7: stream-0 copy reads o3 too: cross-stream RAW.
		out := make([]byte, 256)
		dev.Synchronize()
		_ = dev.MemcpyDtoH(out, o3, nil)
	})

	g := Annotate(tr).Graph()
	if err := matchReference(tr, g); err != nil {
		t.Fatal(err)
	}

	// Edge-kind inventory.
	if g.histo[EdgeIntraStream] == 0 || g.histo[EdgeRAW] == 0 || g.histo[EdgeWAW] == 0 {
		t.Errorf("edge histogram = %v; want intra-stream, RAW and WAW edges", g.histo)
	}

	// The stream-1 copy (5) has no dependence on stream-0 APIs after its
	// object's allocation, so it may share a timestamp level with a
	// stream-0 API — that is the whole point of the topological order.
	if tr.APIs[idxCpy1].Topo >= tr.APIs[idxKernel1].Topo {
		t.Error("intra-stream order violated on stream 1")
	}
	// Cross-stream RAW: the final D2H of o3 (stream 0) must come after the
	// stream-1 copy that wrote o3. Kernel k1 merely reads o3, and readers
	// do not order each other under Definition 5.1 — so no assertion
	// between k1 and the D2H.
	last := tr.APIs[len(tr.APIs)-1]
	if last.Topo <= tr.APIs[idxCpy1].Topo {
		t.Error("cross-stream RAW not reflected in timestamps")
	}
	_ = idxKernel0

	// Concurrency: at least two APIs share one timestamp (streams overlap).
	seen := map[uint64]int{}
	for _, a := range tr.APIs {
		seen[a.Topo]++
	}
	shared := false
	for _, n := range seen {
		if n > 1 {
			shared = true
		}
	}
	if !shared {
		t.Error("no concurrent timestamps; streams did not overlap in the level order")
	}
}

func TestInefficiencyDistance(t *testing.T) {
	tr := buildTrace(func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)                       // T0
		q, _ := dev.Malloc(256)                       // T1
		_ = dev.Memset(q, 0, 256, nil)                // T2
		_ = dev.MemcpyHtoD(p, make([]byte, 256), nil) // T3: first access to p
		_ = dev.Free(p)
		_ = dev.Free(q)
	})
	Annotate(tr)
	// The paper's Figure 4 walkthrough: alloc at T=0, first access at T=3,
	// distance 3.
	if d := InefficiencyDistance(tr, 0, 3); d != 3 {
		t.Errorf("distance = %d, want 3", d)
	}
	if d := InefficiencyDistance(tr, 3, 0); d != 3 {
		t.Errorf("distance must be symmetric, got %d", d)
	}
}

func TestDeadlockFreeKahnCoversAllVertices(t *testing.T) {
	// Random three-stream programs: Incremental must assign every vertex
	// the Kahn reference's timestamp, respecting every edge, and count the
	// reference's edges of each kind.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := buildTrace(func(dev *gpu.Device) {
			streams := []*gpu.Stream{nil, dev.CreateStream(), dev.CreateStream()}
			var ptrs []gpu.DevicePtr
			for op := 0; op < 40; op++ {
				switch rng.Intn(4) {
				case 0:
					p, err := dev.Malloc(uint64(rng.Intn(512) + 1))
					if err == nil {
						ptrs = append(ptrs, p)
					}
				case 1:
					if len(ptrs) > 0 {
						p := ptrs[rng.Intn(len(ptrs))]
						_ = dev.Memset(p, byte(op), 1, streams[rng.Intn(3)])
					}
				case 2:
					if len(ptrs) > 0 {
						p := ptrs[rng.Intn(len(ptrs))]
						_ = dev.LaunchFunc(streams[rng.Intn(3)], "k", gpu.Dim1(1), gpu.Dim1(1),
							func(ctx *gpu.ExecContext) {
								if rng.Intn(2) == 0 {
									_ = ctx.LoadU8(p)
								} else {
									ctx.StoreU8(p, 1)
								}
							})
					}
				case 3:
					if len(ptrs) > 1 && rng.Intn(4) == 0 {
						i := rng.Intn(len(ptrs))
						if dev.Free(ptrs[i]) == nil {
							ptrs = append(ptrs[:i], ptrs[i+1:]...)
						}
					}
				}
			}
		})
		if err := matchReference(tr, Annotate(tr).Graph()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		// Every API got a timestamp and no timestamp exceeds the count.
		for _, a := range tr.APIs {
			if a.Topo >= uint64(len(tr.APIs)) {
				t.Errorf("seed %d: timestamp %d out of range", seed, a.Topo)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphString(t *testing.T) {
	tr := buildTrace(func(dev *gpu.Device) {
		p, _ := dev.Malloc(64)
		_ = dev.Free(p)
	})
	want := "depgraph{vertices: 2, intra-stream: 1, RAW: 0, WAW: 0, WAR: 0}"
	if s := Annotate(tr).Graph().String(); s != want {
		t.Errorf("graph summary = %q, want %q", s, want)
	}
}

// arrivalHook feeds Incremental at API arrival, after the collector, the
// way the profiler's own arrival hook does.
type arrivalHook struct {
	t   *trace.Trace
	inc *Incremental
}

func (h *arrivalHook) OnAPI(rec *gpu.APIRecord) { h.inc.Observe(h.t, h.t.APIs[rec.Index]) }

func (h *arrivalHook) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {}

// decodeProgram turns fuzz bytes into a three-stream device program. Each
// byte pair is one operation: the first byte picks the kind (mod 6) and the
// stream (bits 3-4), the second its argument — a size, or the live buffers
// it touches (low and high nibble). Kinds: malloc, free, memset, host-to-
// device copy, device-to-device copy, and a kernel that reads one buffer
// and writes another, or reads and writes one in place. At most 64
// operations run.
func decodeProgram(data []byte) func(dev *gpu.Device) {
	return func(dev *gpu.Device) {
		streams := []*gpu.Stream{nil, dev.CreateStream(), dev.CreateStream()}
		var ptrs []gpu.DevicePtr
		for ops := 0; len(data) >= 2 && ops < 64; ops++ {
			op, arg := data[0], data[1]
			data = data[2:]
			s := streams[int(op>>3)%3]
			if op%6 == 0 {
				if p, err := dev.Malloc(uint64(arg)%256 + 1); err == nil {
					ptrs = append(ptrs, p)
				}
				continue
			}
			if len(ptrs) == 0 {
				continue
			}
			i, j := int(arg&15)%len(ptrs), int(arg>>4)%len(ptrs)
			a, b := ptrs[i], ptrs[j]
			switch op % 6 {
			case 1:
				if dev.Free(a) == nil {
					ptrs = append(ptrs[:i], ptrs[i+1:]...)
				}
			case 2:
				_ = dev.Memset(a, arg, 1, s)
			case 3:
				_ = dev.MemcpyHtoD(a, []byte{arg}, s)
			case 4:
				_ = dev.MemcpyDtoD(a, b, 1, s)
			case 5:
				_ = dev.LaunchFunc(s, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
					ctx.StoreU8(b, ctx.LoadU8(a)+1)
				})
			}
		}
	}
}

// FuzzIncrementalMatchesReference checks Incremental against the Kahn
// reference on decoded multi-stream programs, twice: live, fed at arrival
// behind the collector, and replayed by Annotate from the profile the live
// trace saves to. The seed corpus in testdata/fuzz covers cross-stream
// copies, in-place kernels, frees with pending readers, interleaved
// memsets on three streams, and a vertex reached from one source as both
// a reader (RAW) and a writer (WAR), where the ascending object order
// decides which kind the deduplicated edge keeps.
func FuzzIncrementalMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := gpu.NewDevice(gpu.SpecTest())
		c := trace.NewCollector()
		dev.SetLiveRangesProvider(c.LiveTable)
		dev.AddHook(c)
		hook := &arrivalHook{t: c.Trace(), inc: NewIncremental()}
		dev.AddHook(hook)
		dev.SetPatchLevel(gpu.PatchAPI)
		decodeProgram(data)(dev)
		live := c.Trace()
		if err := matchReference(live, hook.inc.Graph()); err != nil {
			t.Fatalf("live: %v", err)
		}

		var buf bytes.Buffer
		if err := profile.Save(live, profile.Meta{}, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := profile.Load(&buf)
		if err != nil {
			t.Fatalf("loading the saved trace: %v", err)
		}
		g := Annotate(loaded).Graph()
		if err := matchReference(loaded, g); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if *g != *hook.inc.Graph() {
			t.Errorf("replay graph %v, live %v", g, hook.inc.Graph())
		}
		for i, a := range loaded.APIs {
			if a.Topo != live.APIs[i].Topo {
				t.Fatalf("API %d: replay timestamp %d, live %d", i, a.Topo, live.APIs[i].Topo)
			}
		}
	})
}
