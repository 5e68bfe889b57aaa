package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/profile"
)

// FuzzLoad feeds arbitrary bytes to the profile loader: it must reject or
// accept, never panic, and anything it accepts must survive analysis and a
// re-save round trip. Run `go test -fuzz=FuzzLoad ./internal/profile` to
// explore beyond the seed corpus.
func FuzzLoad(f *testing.F) {
	// Seeds: garbage, an empty document, minimal valid documents, cost
	// attribution under a saved spec, a bad spec, a shared lifetime API,
	// and real saved profiles with the cost model on and off.
	const spec = `"sector_bytes":32,"line_bytes":128,"warp_size":32,"l1_sets":8,"l1_ways":2,` +
		`"l2_sets":32,"l2_ways":4,"l1_hit_cycles":8,"l2_hit_cycles":33,"dram_cycles":100,` +
		`"tlb_entries":4,"page_bytes":65536,"tlb_miss_cycles":50,"copy_bytes_per_cycle":16`
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc","ptr":4096,"size":64}],` +
		`"objects":[{"ptr":4096,"size":64,"alloc_api":0,"free_api":-1}]}`))
	f.Add([]byte(`{"version":2,"apis":[{"index":0,"kind":4,"name":"k"}],"objects":[` +
		`{"ptr":1,"size":8,"alloc_api":0,"free_api":0,"accesses":[{"api":0,"kind":4,"r":true}]}]}`))
	f.Add([]byte(`{"version":2,"cost_model":{` + spec + `},"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},` +
		`{"index":1,"kind":4,"name":"k"}],"objects":[{"ptr":1,"size":4096,"alloc_api":0,"free_api":-1,` +
		`"accesses":[{"api":1,"kind":4,"r":true}],"cost":{"accesses":512,"warps":16,"transactions":512,` +
		`"ideal_transactions":64,"mem_transactions":512,"modeled_cycles":51200},"cost_by_kernel":{"k":` +
		`{"accesses":512,"warps":16,"transactions":512,"ideal_transactions":64,"mem_transactions":512,` +
		`"modeled_cycles":51200}}}]}`))
	f.Add([]byte(`{"version":2,"cost_model":{` + strings.Replace(spec, `"l1_sets":8`, `"l1_sets":6`, 1) + `}}`))
	f.Add([]byte(`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},{"index":1,"kind":1,"name":"cudaFree"}],` +
		`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":1},{"ptr":1,"size":8,"alloc_api":0,"free_api":1}]}`))
	for _, cfg := range []core.Config{core.DefaultConfig(), costOff()} {
		var buf bytes.Buffer
		if err := recordSmall(cfg).SaveProfile(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, meta, err := profile.Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever loads must analyze and render without panicking...
		rep, err := core.AnalyzeProfile(bytes.NewReader(data), core.DefaultConfig())
		if err != nil {
			t.Fatalf("Load accepted but AnalyzeProfile rejected: %v", err)
		}
		var sb strings.Builder
		rep.Render(&sb, true)
		// ...and must survive a save/load round trip.
		var out bytes.Buffer
		if err := profile.Save(tr, meta, &out); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		if _, _, err := profile.Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// recordSmall produces a real report for the seed corpus: a copied,
// strided kernel-read buffer, so the cost model has traffic to attribute.
func recordSmall(cfg core.Config) *core.Report {
	dev := gpu.NewDevice(gpu.SpecTest())
	prof := core.Attach(dev, cfg)
	a, _ := dev.Malloc(4096)
	_ = dev.Memset(a, 0, 4096, nil)
	_ = dev.LaunchFunc(nil, "k", gpu.Dim1(4), gpu.Dim1(32), func(ctx *gpu.ExecContext) {
		for i := 0; i < 128; i++ {
			_ = ctx.LoadU32(a + gpu.DevicePtr(32*i%4096))
		}
	})
	_ = dev.Free(a)
	return prof.Finish()
}

// costOff is the default configuration with the cost model disabled.
func costOff() core.Config {
	cfg := core.DefaultConfig()
	cfg.CostModel.Disabled = true
	return cfg
}
