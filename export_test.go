package drgpum_test

import (
	"bytes"
	"strings"
	"testing"

	"drgpum"
	"drgpum/gpusim"
	"drgpum/internal/gui"
)

// observedReport runs a small workload through the option-based
// constructor and returns the finished report.
func observedReport(t *testing.T, opts ...drgpum.Option) *drgpum.Report {
	t.Helper()
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev, opts...)

	buf, err := dev.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	prof.Annotate(buf, "workbuf", 4)
	if err := dev.MemcpyHtoD(buf, make([]byte, 4096), nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.LaunchFunc(nil, "inc", gpusim.Dim1(4), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < 1024; i++ {
				addr := buf + gpusim.DevicePtr(i*4)
				ctx.StoreU32(addr, ctx.LoadU32(addr)+1)
			}
		}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(buf); err != nil {
		t.Fatal(err)
	}
	return prof.Finish()
}

// TestExportFormatsByteIdentical pins the exporter unification: every
// underlying writer produces exactly the bytes Report.Export produces for
// the corresponding format.
func TestExportFormatsByteIdentical(t *testing.T) {
	rep := observedReport(t, drgpum.WithIntraObject(), drgpum.WithObservability())

	compare := func(name string, legacy func(*bytes.Buffer) error, f drgpum.Format) {
		t.Helper()
		var old, unified bytes.Buffer
		if err := legacy(&old); err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		if err := rep.Export(&unified, f); err != nil {
			t.Fatalf("%s Export: %v", name, err)
		}
		if !bytes.Equal(old.Bytes(), unified.Bytes()) {
			t.Errorf("%s: legacy and Export(%v) differ (%d vs %d bytes)",
				name, f, old.Len(), unified.Len())
		}
		if unified.Len() == 0 {
			t.Errorf("%s: Export produced no output", name)
		}
	}

	compare("text", func(b *bytes.Buffer) error { rep.Render(b, false); return nil }, drgpum.FormatText)
	compare("gui", func(b *bytes.Buffer) error { return gui.Export(rep, b) }, drgpum.FormatGUI)
	compare("html", func(b *bytes.Buffer) error { return gui.ExportHTML(rep, b) }, drgpum.FormatHTML)
	compare("profile", func(b *bytes.Buffer) error { return rep.SaveProfile(b) }, drgpum.FormatProfile)
	compare("stats", func(b *bytes.Buffer) error { _, err := b.WriteString(rep.Stats()); return err }, drgpum.FormatStats)
}

// TestNewOptions pins the option-based constructor: each option reaches
// the profiler's behavior, and WithConfig(IntraObjectConfig()) stays
// equivalent to WithIntraObject().
func TestNewOptions(t *testing.T) {
	rep := observedReport(t,
		drgpum.WithIntraObject(),
		drgpum.WithMemcheck(),
		drgpum.WithObservability(),
		drgpum.WithTopPeaks(3),
	)
	if rep.Memcheck == nil {
		t.Error("WithMemcheck did not attach the checker")
	}
	if rep.Obs == nil {
		t.Error("WithObservability left the report without a snapshot")
	}
	if !strings.Contains(rep.Stats(), "apis ingested") {
		t.Errorf("Stats missing counters:\n%s", rep.Stats())
	}

	// Without observability, Stats degrades to the documented notice.
	plain := observedReport(t)
	if plain.Obs != nil {
		t.Error("report carries an obs snapshot without WithObservability")
	}
	if !strings.Contains(plain.Stats(), "disabled") {
		t.Errorf("Stats without obs = %q, want the disabled notice", plain.Stats())
	}

	// A caller-owned observer aggregates across profilers.
	rec := drgpum.NewObserver()
	observedReport(t, drgpum.WithObserver(rec))
	observedReport(t, drgpum.WithObserver(rec))
	var got uint64
	for _, c := range rec.Snapshot().Counters {
		if c.Name == "apis ingested" {
			got = c.Value
		}
	}
	if got == 0 {
		t.Error("shared observer saw no APIs")
	}

	// A prepared Config and the equivalent option: same workload,
	// byte-identical reports.
	mkDev := func() (*gpusim.Device, func(p *drgpum.Profiler) *drgpum.Report) {
		dev := gpusim.NewDevice(gpusim.SpecRTX3090())
		return dev, func(p *drgpum.Profiler) *drgpum.Report {
			buf, err := dev.Malloc(2048)
			if err != nil {
				t.Fatal(err)
			}
			p.Annotate(buf, "b", 4)
			if err := dev.Free(buf); err != nil {
				t.Fatal(err)
			}
			return p.Finish()
		}
	}
	// Both configurations drive the workload through the same call site so
	// the unwound call paths in the verbose render match exactly.
	var outs [2]bytes.Buffer
	for i, opt := range []drgpum.Option{drgpum.WithConfig(drgpum.IntraObjectConfig()), drgpum.WithIntraObject()} {
		dev, run := mkDev()
		run(drgpum.New(dev, opt)).Render(&outs[i], true)
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("New(WithConfig(IntraObjectConfig())) and New(WithIntraObject()) reports differ")
	}
}
