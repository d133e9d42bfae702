package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"microsampler/internal/isa"
	"microsampler/internal/sim"
)

// listTracer checks, every cycle, the executing list against a full
// ROB walk and the cursor-bounded store-conflict scan of every waiting
// load against a full STQ scan, and records which cases it saw.
type listTracer struct {
	err                         error
	cycles                      int
	list, walk, prev            []uint64
	loads                       []sim.LoadConflict
	forwarded, blocked, trimmed bool
}

func (l *listTracer) OnCycle(p *sim.Probe) {
	if l.err != nil {
		return
	}
	l.cycles++
	// An entry of the last cycle's list cannot have committed since: it
	// had not completed, and commit runs before complete. So one that
	// left the ROB was squashed, and the list had to be trimmed.
	for _, seq := range l.prev {
		if !p.InROB(seq) {
			l.trimmed = true
			break
		}
	}
	l.list, l.walk = p.AppendExec(l.list[:0], l.walk[:0])
	l.prev = append(l.prev[:0], l.list...)
	if !slices.Equal(l.list, l.walk) {
		l.err = fmt.Errorf("cycle %d: executing list %v, ROB walk %v", l.cycles, l.list, l.walk)
		return
	}
	l.loads = p.AppendLoadConflicts(l.loads[:0])
	for _, c := range l.loads {
		if c.Fwd != c.RefFwd || c.Blocked != c.RefBlocked {
			l.err = fmt.Errorf("cycle %d: load %d: cursor scan gives forward %d blocked %v, full scan %d %v",
				l.cycles, c.Load, c.Fwd, c.Blocked, c.RefFwd, c.RefBlocked)
			return
		}
		l.forwarded = l.forwarded || c.Fwd != 0
		l.blocked = l.blocked || c.Blocked
	}
}

func (*listTracer) OnMark(int64, isa.MarkKind, uint64) {}

// TestPipelineListsMatchWalks is the differential test of the
// pipeline's lists: on every cycle the executing list must hold exactly
// the ROB entries complete can act on, in age order, and for every
// waiting load the STQ cursor must give the same forwarding source and
// blocked flag as a scan of the whole STQ. The test also requires that
// it saw a forwarded load, a blocked load and a squash that trimmed the
// executing list, so it cannot pass without exercising each case.
func TestPipelineListsMatchWalks(t *testing.T) {
	// The long kernels keep the ROB, LDQ and STQ full, SPECTRE-PHT
	// squashes, and ME-NAIVE's loads forward from older stores.
	kernels := []string{"ME-V2-SAFE", "CRYPTO_memcmp", "SPECTRE-PHT", "ME-NAIVE"}
	var forwarded, blocked, trimmed bool
	for _, c := range walkConfigs() {
		for _, name := range kernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				tr := &listTracer{}
				_, err := runTraced(t, name, c.cfg, tr)
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				if err != nil {
					t.Fatal(err)
				}
				forwarded = forwarded || tr.forwarded
				blocked = blocked || tr.blocked
				trimmed = trimmed || tr.trimmed
			})
		}
	}
	if !forwarded || !blocked || !trimmed {
		t.Fatalf("cases left untested: forwarded load %v, blocked load %v, squash of a non-empty list %v",
			forwarded, blocked, trimmed)
	}
}
