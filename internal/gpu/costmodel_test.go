package gpu

import (
	"fmt"
	"strings"
	"testing"

	"drgpum/internal/costmodel"
)

// TestSetCostModelRejectsBadGeometry pins that SetCostModel refuses, with
// a panic naming the field, every geometry the cost model's shift-and-
// mask arithmetic cannot represent, and leaves the device unchanged.
func TestSetCostModelRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*costmodel.Spec)
		want string // panic message substring; "" means accepted
	}{
		{"derived", func(*costmodel.Spec) {}, ""},
		{"one set, one way", func(s *costmodel.Spec) { s.L1Sets, s.L1Ways, s.L2Sets, s.L2Ways = 1, 1, 1, 1 }, ""},
		{"line equals sector", func(s *costmodel.Spec) { s.LineBytes = 32 }, ""},
		{"sector not a power of two", func(s *costmodel.Spec) { s.SectorBytes = 24 }, "SectorBytes 24 is not a power of two"},
		{"line not a power of two", func(s *costmodel.Spec) { s.LineBytes = 96 }, "LineBytes 96 is not a power of two"},
		{"line zero", func(s *costmodel.Spec) { s.LineBytes = 0 }, "LineBytes 0 is not a power of two"},
		{"line below sector", func(s *costmodel.Spec) { s.LineBytes = 16 }, "LineBytes 16 is smaller than SectorBytes 32"},
		{"warp zero", func(s *costmodel.Spec) { s.WarpSize = 0 }, "WarpSize 0 is below 1"},
		{"L1 sets", func(s *costmodel.Spec) { s.L1Sets = 6 }, "cache set count 6 is not a power of two"},
		{"L2 sets", func(s *costmodel.Spec) { s.L2Sets = 48 }, "cache set count 48 is not a power of two"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := NewDevice(SpecTest())
			spec := costmodel.SpecFor(dev.Spec().Name, dev.Spec().GlobalLatency, 16, 1_000, 500)
			c.edit(&spec)
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				dev.SetCostModel(spec)
				return ""
			}()
			_, on := dev.CostModelSpec()
			switch {
			case c.want == "" && (got != "" || !on):
				t.Fatalf("valid spec rejected: %q", got)
			case c.want != "" && !strings.Contains(got, c.want):
				t.Fatalf("panic %q, want one containing %q", got, c.want)
			case c.want != "" && on:
				t.Fatal("a rejected spec left the cost model enabled")
			}
		})
	}
}
