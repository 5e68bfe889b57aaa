package advisor_test

import (
	"fmt"
	"testing"

	"drgpum/internal/advisor"
	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// TestPeakSavingsMatchReferenceOnWorkloads profiles every program, bundled
// and extra, in both variants at object and intra-object level, offline and
// streaming, and checks each reported finding's PeakSavingsBytes against
// the per-finding reference replay over the report's own trace.
func TestPeakSavingsMatchReferenceOnWorkloads(t *testing.T) {
	programs := append(workloads.All(), workloads.Extras()...)
	for _, w := range programs {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, intra := range []bool{false, true} {
				for _, stream := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/intra=%t/stream=%t", w.Name, v, intra, stream)
					t.Run(name, func(t *testing.T) {
						cfg := core.DefaultConfig()
						if intra {
							cfg = core.IntraObjectConfig()
							cfg.KernelWhitelist = w.IntraKernels
						}
						if stream {
							cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: 4}
						}
						dev := gpu.NewDevice(gpu.SpecRTX3090())
						prof := core.Attach(dev, cfg)
						if err := w.Run(dev, prof, v); err != nil {
							t.Fatal(err)
						}
						rep := prof.Finish()
						want := advisor.RefMarginalSavings(rep.Trace, rep.Findings)
						for i, f := range rep.Findings {
							if f.PeakSavingsBytes != want[i] {
								t.Errorf("%s on object %d: PeakSavingsBytes %d, reference %d",
									f.Pattern.Abbrev(), f.Object, f.PeakSavingsBytes, want[i])
							}
						}
					})
				}
			}
		}
	}
}
