package core

import (
	"errors"
	"io"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/objlevel"
	"drgpum/internal/profile"
)

// errStreamedProfile is returned by SaveProfile for streamed traces.
var errStreamedProfile = errors.New("core: streamed trace has retired its access history; profiles require an offline (non-streaming) run")

// SaveProfile serializes the report's trace and run metadata — including
// the cost-model spec and per-object cost attribution when the model was on
// — as a profile file that AnalyzeProfile can re-analyze later: the
// persistent form of the paper's online-collector/offline-analyzer split
// (§4). Streamed traces cannot be saved: window retirement already
// discarded the per-invocation payloads a profile round-trips.
func (r *Report) SaveProfile(w io.Writer) error {
	if r.Trace.Streamed {
		return errStreamedProfile
	}
	return profile.Save(r.Trace, profile.Meta{
		Device:    r.Device,
		Cycles:    r.Elapsed,
		PeakBytes: r.MemStats.Peak,
		Capacity:  r.MemStats.Capacity,
		CostModel: r.CostModel,
	}, w)
}

// AnalyzeProfile loads a saved profile and re-runs the analyses under the
// given configuration. The saved event stream is replayed in API order
// through the dependency pass and the consecutive-access accumulator the
// live profiler runs at arrival, and the report is built by the same code,
// so re-analyzing under the thresholds of the live run reproduces its
// object-level report byte for byte. Because every §3 threshold is
// user-tunable, this lets a saved run be re-examined under different
// settings without re-executing the application.
//
// When the profile carries a cost-model spec and cfg.CostModel.Disabled is
// false, findings are priced with that spec and the saved per-object costs,
// and the uncoalesced-access detector runs under cfg.CostModel's MinWarps
// and ExcessRatio. Saved costs cannot be re-modeled, so cfg.CostModel.Spec
// is ignored. Intra-object findings are an online product (the access maps
// live only during the run) and stay live-only: re-analysis covers the
// object-level patterns and uncoalesced access.
func AnalyzeProfile(rd io.Reader, cfg Config) (*Report, error) {
	t, meta, err := profile.Load(rd)
	if err != nil {
		return nil, err
	}
	inc := depgraph.Annotate(t)
	acc := objlevel.Accumulate(t, cfg.ObjLevel)
	rm := runMeta{
		device: meta.Device,
		mem:    gpu.AllocStats{Peak: meta.PeakBytes, Capacity: meta.Capacity},
		cycles: meta.Cycles,
	}
	if !cfg.CostModel.Disabled {
		rm.cost = meta.CostModel
	}
	return buildReport(nil, t, inc, acc, nil, cfg, rm), nil
}
