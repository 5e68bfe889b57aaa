package trace

import (
	"testing"
	"time"

	"drgpum/internal/gpu"
	"drgpum/internal/obs"
)

// ingestionHarness is accessHarness's sweep shape with device-tagged
// records — the ingestion path a hit-flag launch takes — for the obs
// overhead measurements.
func ingestionHarness() (*Collector, *gpu.APIRecord, []gpu.MemAccess) {
	c, _, rec, batch := accessHarness(false, true)
	return c, rec, batch
}

// BenchmarkIngestion compares the access-batch ingestion path without any
// recorder installed (base), with a disabled recorder (the cost the obs
// layer imposes on users who never enable it: cached-nil node checks plus
// one guarded atomic load per counter), and with an enabled recorder (the
// full spans-and-counters tap). TestObsDisabledOverhead pins base vs
// disabled; this benchmark makes all three inspectable.
func BenchmarkIngestion(b *testing.B) {
	run := func(b *testing.B, rec *obs.Recorder, install bool) {
		c, kernel, batch := ingestionHarness()
		if install {
			c.SetObs(rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.OnAccessBatch(kernel, batch)
		}
		b.ReportMetric(float64(len(batch)), "accesses/op")
	}
	b.Run("base", func(b *testing.B) { run(b, nil, false) })
	b.Run("obs-disabled", func(b *testing.B) { run(b, obs.Nop, true) })
	b.Run("obs-enabled", func(b *testing.B) { run(b, obs.New(), true) })
}

// TestObsDisabledOverhead pins the tentpole cost contract: with a disabled
// recorder installed, access-batch ingestion must run within 2% of the
// no-recorder baseline. Minimum-of-N with interleaved trials discards
// scheduler noise; the comparison retries to ride out a noisy machine and
// only fails if every attempt shows the disabled path slower than 1.02x.
func TestObsDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	const iters = 200 // batches per trial (~800k accesses)
	trial := func(c *Collector, kernel *gpu.APIRecord, batch []gpu.MemAccess) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.OnAccessBatch(kernel, batch)
		}
		return time.Since(start)
	}

	baseC, baseK, baseB := ingestionHarness()
	disC, disK, disB := ingestionHarness()
	disC.SetObs(obs.Nop)

	for attempt := 1; ; attempt++ {
		minBase, minDis := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 7; i++ {
			if d := trial(baseC, baseK, baseB); d < minBase {
				minBase = d
			}
			if d := trial(disC, disK, disB); d < minDis {
				minDis = d
			}
		}
		limit := minBase + minBase/50 // 1.02x
		if minDis <= limit {
			return
		}
		if attempt == 3 {
			t.Fatalf("disabled-obs ingestion overhead above 2%%: base min %v, disabled min %v (limit %v)",
				minBase, minDis, limit)
		}
	}
}
