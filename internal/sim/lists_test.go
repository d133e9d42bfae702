package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"microsampler/internal/asm"
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

// schedTracer checks, every cycle, the scheduler's ready list against a
// full scan of the uops waiting to issue, its load list against a full
// LDQ scan, and that every load held back as still blocked is blocked
// by a full STQ scan. It records the most entries either list held, how
// many ready-list entries were not yet due and how many loads were held
// back.
type schedTracer struct {
	err                               error
	cycles, ready, loads, ahead, held int
	list, scan, lds, ldqScan, free    []uint64
}

func (s *schedTracer) OnCycle(p *sim.Probe) {
	if s.err != nil {
		return
	}
	s.cycles++
	var ahead, held int
	s.list, s.scan, ahead = p.AppendReady(s.list[:0], s.scan[:0])
	s.lds, s.ldqScan = p.AppendLoads(s.lds[:0], s.ldqScan[:0])
	held, s.free = p.HeldLoads(s.free[:0])
	switch {
	case len(s.free) > 0:
		s.err = fmt.Errorf("cycle %d: loads %v held back as blocked, a full STQ scan lets them go", s.cycles, s.free)
	case !slices.Equal(s.list, s.scan):
		s.err = fmt.Errorf("cycle %d: ready list %v, scan of unissued uops %v", s.cycles, s.list, s.scan)
	case !slices.Equal(s.lds, s.ldqScan):
		s.err = fmt.Errorf("cycle %d: load list %v, LDQ scan %v", s.cycles, s.lds, s.ldqScan)
	}
	s.ready = max(s.ready, len(s.list))
	s.loads = max(s.loads, len(s.lds))
	s.ahead += ahead
	s.held += held
}

func (*schedTracer) OnMark(int64, isa.MarkKind, uint64) {}

// TestSchedulerListsMatchScans is the differential test of producer
// wake-up: on every cycle the ready list's entries that are due must be
// exactly the uops waiting to issue whose sources are readable, in age
// order, and the load list issueMemory walks exactly the LDQ's loads
// with their address ready and no memory access yet, across wake-ups at
// issue, at a load's access, at a fold and after squashes. A load
// issueMemory skips because no store changed since one blocked it must
// still be blocked. On a configuration with one MSHR and one fill
// buffer entry and long misses, loads that were just unblocked often
// fail their access and stay on the list.
func TestSchedulerListsMatchScans(t *testing.T) {
	kernels := []string{"ME-V2-SAFE", "CRYPTO_memcmp", "SPECTRE-PHT", "ME-NAIVE"}
	narrow := sim.MegaBoom()
	narrow.MSHREntries, narrow.LFBEntries, narrow.MissLat = 1, 1, 150
	var ready, loads, ahead, held int
	for _, c := range append(walkConfigs(), walkConfig{"narrowmem", narrow}) {
		for _, name := range kernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				tr := &schedTracer{}
				_, err := runTraced(t, name, c.cfg, tr)
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				if err != nil {
					t.Fatal(err)
				}
				ready = max(ready, tr.ready)
				loads = max(loads, tr.loads)
				ahead += tr.ahead
				held += tr.held
			})
		}
	}
	// A word load overlapping an older byte store only partly waits
	// until the store drains, and nothing but the drain lifts the block.
	t.Run("partial-overlap", func(t *testing.T) {
		prog, err := asm.Assemble(partialOverlap)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.MegaBoom())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		tr := &schedTracer{}
		m.SetTracer(tr)
		_, err = m.Run(1_000_000)
		if tr.err != nil {
			t.Fatal(tr.err)
		}
		if err != nil {
			t.Fatal(err)
		}
		held += tr.held
	})
	if ready < 2 || loads < 2 || ahead == 0 || held == 0 {
		t.Fatalf("lists never held two entries (ready %d, loads %d), no ready entry waited for its cycle (%d) or no load was held back (%d): cases went untested",
			ready, loads, ahead, held)
	}
}

// partialOverlap stores a byte into the middle of the word each next
// load reads.
const partialOverlap = `
	.data
buf: .zero 64
	.text
_start:
	la   s4, buf
	li   s2, 200
loop:
	sb   s2, 1(s4)
	lw   t0, 0(s4)
	add  s3, s3, t0
	addi s2, s2, -1
	bnez s2, loop
	li   a0, 0
	li   a7, 93
	ecall
`
