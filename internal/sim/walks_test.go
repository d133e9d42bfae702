package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// walkTracer checks, every cycle, the probe's O(1) ROB occupancy and
// its live-bounded fill-buffer rows against full walks of the state.
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
	if w.err != nil {
		w.err = fmt.Errorf("cycle %d: %w", w.cycles, w.err)
	}
}

func (*walkTracer) OnMark(int64, isa.MarkKind, uint64) {}

// TestProbeCountersMatchWalks is the differential test of the probe's
// bookkeeping: the folded-uop counter behind ROBOccupancy and the
// fill buffer's live bound must agree with full walks on every cycle,
// across dispatch and issue folds, squashes, demand misses and both
// prefetchers.
func TestProbeCountersMatchWalks(t *testing.T) {
	bypass := sim.MegaBoom()
	bypass.FastBypass = true
	stride := sim.MegaBoom()
	stride.NextLinePrefetcher = false
	stride.StridePrefetcher = true
	cfgs := []struct {
		name string
		cfg  sim.Config
	}{
		{"megaboom", sim.MegaBoom()},
		{"smallboom", sim.SmallBoom()},
		{"fastbypass", bypass},
		{"stride", stride},
	}
	// Under FastBypass ME-V1-MV and ME-V2-SAFE fold at issue, ME-V2-SAFE
	// and constant_time_cond_swap_buff at dispatch, and
	// the latter also squashes folded uops on mispredicted
	// paths; SPF-STREAM and AES-TTABLE keep the fill buffer busy.
	kernels := []string{"ME-V1-MV", "ME-V2-SAFE", "SPF-STREAM", "AES-TTABLE", "constant_time_cond_swap_buff"}
	folded := 0
	for _, c := range cfgs {
		for _, name := range kernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				w, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := asm.Assemble(w.Source)
				if err != nil {
					t.Fatal(err)
				}
				m, err := sim.New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if w.Setup != nil {
					if err := w.Setup(0, m, prog); err != nil {
						t.Fatal(err)
					}
				}
				tr := &walkTracer{}
				m.SetTracer(tr)
				if _, err := m.Run(20_000_000); err != nil {
					t.Fatal(err)
				}
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				folded += tr.folded
			})
		}
	}
	if folded == 0 {
		t.Fatal("no run ever held a folded uop in the ROB: the occupancy counter went untested")
	}
}
