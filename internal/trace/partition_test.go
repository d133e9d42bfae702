package trace_test

import (
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/oracle"
	"microsampler/internal/sim"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// partitionCase is one verification whose runs the partition test
// replays: a workload on a configuration, with its run and warmup
// counts.
type partitionCase struct {
	name         string
	w            core.Workload
	cfg          sim.Config
	runs, warmup int
}

// TestTimedEncodingPartition asserts that the collector's timed
// snapshot hash partitions iterations exactly as HashMatrix of the
// iteration's rows does. A verdict reads only which iteration
// snapshots are equal, so any encoding with the same partition leaves
// every contingency table, and so every V, p, flag and feature set,
// unchanged. Per unit, over every catalogue kernel on MegaBoom and
// SmallBoom and every oracle corpus entry, the map from HashMatrix
// digest to collector digest must be a bijection: equal matrices hash
// equal, and unequal matrices hash unequal.
func TestTimedEncodingPartition(t *testing.T) {
	var cases []partitionCase
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []sim.Config{sim.MegaBoom(), sim.SmallBoom()} {
			cases = append(cases, partitionCase{name + "/" + cfg.Name, w, cfg, 4, 2})
		}
	}
	for _, e := range oracle.Corpus() {
		w, cfg, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		runs, warmup := e.Runs, e.Warmup
		if runs == 0 {
			runs = 4
		}
		if warmup == 0 {
			warmup = 4
		}
		cases = append(cases, partitionCase{"oracle/" + e.Name, w, cfg, runs, warmup})
	}

	// The replays run as parallel subtests; each returns, per unit, its
	// (HashMatrix digest, collector digest) pairs in iteration order, and
	// the bijection is checked over all of them once they are done.
	units := trace.AllUnits()
	pairs := make([][][][2]uint64, len(cases))
	t.Run("replay", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				pairs[i] = replayPartition(t, c, units)
			})
		}
	})
	if t.Failed() {
		return
	}
	iterations, columns := 0, 0
	for ui, u := range units {
		fwd := map[uint64]uint64{} // HashMatrix digest → collector digest
		back := map[uint64]uint64{}
		for ci, c := range cases {
			for _, p := range pairs[ci][ui] {
				want, got := p[0], p[1]
				if h, ok := fwd[want]; ok && h != got {
					t.Fatalf("%s %v: equal matrices hash %#x and %#x", c.name, u, h, got)
				}
				if h, ok := back[got]; ok && h != want {
					t.Fatalf("%s %v: unequal matrices %#x and %#x share hash %#x", c.name, u, h, want, got)
				}
				fwd[want], back[got] = got, want
			}
			if ui == 0 {
				iterations += len(pairs[ci][ui])
			}
		}
		columns += len(fwd)
	}
	t.Logf("%d verifications, %d iterations per unit, %d columns over %d units",
		len(cases), iterations, columns, len(units))
	if iterations == 0 {
		t.Fatal("no kept iterations")
	}
}

// replayPartition simulates every run of c under a row tap and returns,
// per unit, each kept iteration's HashMatrix digest paired with the
// collector's timed hash.
func replayPartition(t *testing.T, c partitionCase, units []trace.Unit) [][][2]uint64 {
	prog, err := asm.Assemble(c.w.Source)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][][2]uint64, len(units))
	for run := 0; run < c.runs; run++ {
		m, err := sim.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if c.w.Setup != nil {
			if err := c.w.Setup(run, m, prog); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
		}
		tap := &rowTap{col: trace.NewCollector(trace.WithWarmupIterations(c.warmup)), units: units}
		m.SetTracer(tap)
		if _, err := m.Run(20_000_000); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		kept := tap.matrixHash[min(c.warmup, len(tap.matrixHash)):]
		if len(kept) != len(tap.col.Iterations()) {
			t.Fatalf("run %d: tapped %d kept iterations, collector kept %d",
				run, len(kept), len(tap.col.Iterations()))
		}
		for ui, ut := range tap.col.Results() {
			for i, h := range ut.IterHashes {
				pairs[ui] = append(pairs[ui], [2]uint64{kept[i][ui], h})
			}
		}
	}
	return pairs
}
