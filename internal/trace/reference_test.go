package trace_test

import (
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// rowTap wraps a Collector and samples every unit's rows alongside it,
// so the collector's streamed digests can be recomputed from whole
// matrices. Per labeled iteration, warmup included, it keeps each
// unit's HashMatrix digest, and with keepRows the rows themselves.
type rowTap struct {
	col         *trace.Collector
	units       []trace.Unit
	keepRows    bool
	roi, inIter bool
	cur         [][][]uint64   // per unit: the current iteration's rows
	iters       [][][][]uint64 // per iteration, per unit: its rows (keepRows)
	matrixHash  [][]uint64     // per iteration, per unit: HashMatrix of its rows
}

func (r *rowTap) OnMark(cycle int64, kind isa.MarkKind, class uint64) {
	switch kind {
	case isa.MarkROIBegin:
		r.roi = true
	case isa.MarkROIEnd:
		r.roi, r.inIter = false, false
	case isa.MarkIterBegin:
		if r.roi {
			r.inIter = true
			r.cur = make([][][]uint64, len(r.units))
		}
	case isa.MarkIterEnd:
		if r.roi && r.inIter {
			r.inIter = false
			hashes := make([]uint64, len(r.units))
			for i, rows := range r.cur {
				hashes[i] = snapshot.HashMatrix(rows)
			}
			r.matrixHash = append(r.matrixHash, hashes)
			if r.keepRows {
				r.iters = append(r.iters, r.cur)
			}
		}
	}
	r.col.OnMark(cycle, kind, class)
}

func (r *rowTap) OnCycle(p *sim.Probe) {
	if r.roi && r.inIter {
		for i, u := range r.units {
			r.cur[i] = append(r.cur[i], trace.UnitRow(u, p, nil))
		}
	}
	r.col.OnCycle(p)
}

// TestCollectorHashesMatchHashMatrix checks the collector's streamed
// digests against independent references: each kept iteration's timed
// hash is HashTimed of the unit's rows in that iteration, and each
// timing-free entry hashes like HashMatrix of its representative event
// sequence.
func TestCollectorHashesMatchHashMatrix(t *testing.T) {
	for _, name := range []string{"ME-V1-MV", "CT-DIV"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(w.Source)
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
		if w.Setup != nil {
			if err := w.Setup(0, m, prog); err != nil {
				t.Fatal(err)
			}
		}
		tap := &rowTap{col: trace.NewCollector(), units: trace.AllUnits(), keepRows: true}
		m.SetTracer(tap)
		if _, err := m.Run(20_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tap.iters) == 0 || len(tap.iters) != len(tap.col.Iterations()) {
			t.Fatalf("%s: tapped %d iterations, collector kept %d",
				name, len(tap.iters), len(tap.col.Iterations()))
		}
		t.Logf("%s: %d iterations", name, len(tap.iters))
		for ui, ut := range tap.col.Results() {
			for i, h := range ut.IterHashes {
				if want := snapshot.HashTimed(tap.iters[i][ui]); h != want {
					t.Fatalf("%s %v iteration %d: timed hash %#x, HashTimed %#x", name, ut.Unit, i, h, want)
				}
			}
			for _, e := range ut.NoTiming.Entries() {
				if want := snapshot.HashMatrix(e.Rep); e.Hash != want {
					t.Errorf("%s %v: event-view hash %#x, HashMatrix of its representative %#x",
						name, ut.Unit, e.Hash, want)
				}
			}
		}
	}
}
