package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"microsampler/internal/isa"
	"microsampler/internal/sim"
)

// walkTracer checks, every cycle, the probe's O(1) ROB occupancy and
// its live-bounded fill-buffer rows against full walks of the state,
// and that no line is outstanding in two fill slots (demand, next-line
// and stride trackers together) or valid in two ways of a D-cache set:
// the one lookup over all trackers and the one tag walk rely on both.
type walkTracer struct {
	err                              error
	cycles                           int
	folded                           int // most folded uops seen in the ROB at once
	data, addrs, wantData, wantAddrs []uint64
}

func (w *walkTracer) OnCycle(p *sim.Probe) {
	if w.err != nil {
		return
	}
	w.cycles++
	occupied, folded := p.WalkROB()
	w.folded = max(w.folded, folded)
	var above int
	w.wantData, w.wantAddrs, above = p.WalkLFB(w.wantData[:0], w.wantAddrs[:0])
	w.data = p.AppendLFBData(w.data[:0])
	w.addrs = p.AppendLFBAddrs(w.addrs[:0])
	switch {
	case p.ROBOccupancy() != occupied:
		w.err = fmt.Errorf("ROBOccupancy() = %d, walk counts %d", p.ROBOccupancy(), occupied)
	case above != 0:
		w.err = fmt.Errorf("%d valid LFB slots at or above the live bound", above)
	case !slices.Equal(w.data, w.wantData):
		w.err = fmt.Errorf("AppendLFBData = %x, walk gives %x", w.data, w.wantData)
	case !slices.Equal(w.addrs, w.wantAddrs):
		w.err = fmt.Errorf("AppendLFBAddrs = %x, walk gives %x", w.addrs, w.wantAddrs)
	}
	if twice, ways := p.WalkFills(); w.err == nil && twice+ways > 0 {
		w.err = fmt.Errorf("%d lines outstanding in two fill slots, %d valid in two ways of a set", twice, ways)
	}
	if w.err != nil {
		w.err = fmt.Errorf("cycle %d: %w", w.cycles, w.err)
	}
}

func (*walkTracer) OnMark(int64, isa.MarkKind, uint64) {}

// TestProbeCountersMatchWalks is the differential test of the probe's
// bookkeeping: the folded-uop counter behind ROBOccupancy and the
// fill buffer's live bound must agree with full walks on every cycle,
// across dispatch and issue folds, squashes, demand misses and both
// prefetchers. The same walk checks that each line has at most one
// outstanding fill and at most one valid way.
func TestProbeCountersMatchWalks(t *testing.T) {
	// Under FastBypass ME-V1-MV and ME-V2-SAFE fold at issue, ME-V2-SAFE
	// and constant_time_cond_swap_buff at dispatch, and
	// the latter also squashes folded uops on mispredicted
	// paths; SPF-STREAM and AES-TTABLE keep the fill buffer busy.
	kernels := []string{"ME-V1-MV", "ME-V2-SAFE", "SPF-STREAM", "AES-TTABLE", "constant_time_cond_swap_buff"}
	folded := 0
	for _, c := range walkConfigs() {
		for _, name := range kernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				tr := &walkTracer{}
				_, err := runTraced(t, name, c.cfg, tr)
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				if err != nil {
					t.Fatal(err)
				}
				folded += tr.folded
			})
		}
	}
	if folded == 0 {
		t.Fatal("no run ever held a folded uop in the ROB: the occupancy counter went untested")
	}
}

// walkConfig is one configuration the differential tests run on.
type walkConfig struct {
	name string
	cfg  sim.Config
}

// walkConfigs covers both core sizes, folding at dispatch and at issue,
// the stride prefetcher and the TAGE predictor.
func walkConfigs() []walkConfig {
	bypass := sim.MegaBoom()
	bypass.FastBypass = true
	stride := sim.MegaBoom()
	stride.NextLinePrefetcher = false
	stride.StridePrefetcher = true
	tage := sim.MegaBoom()
	tage.TAGEPredictor = true
	return []walkConfig{
		{"megaboom", sim.MegaBoom()},
		{"smallboom", sim.SmallBoom()},
		{"fastbypass", bypass},
		{"stride", stride},
		{"tage", tage},
	}
}
