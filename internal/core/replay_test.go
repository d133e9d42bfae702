package core_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// TestReplayedProvenanceMatchesInRun checks the replay against the
// collection it stands in for: for every catalogue workload on
// MegaBoom, the provenance LoadProvenance rebuilds deep-equals the
// provenance recorded during the runs, and every other field of the two
// reports is identical apart from the timings.
func TestReplayedProvenanceMatchesInRun(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Runs: 2, Parallel: 2}
			replayed, err := core.Verify(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Provenance != nil {
				t.Fatal("verification without Options.Provenance recorded provenance")
			}
			opts.Provenance = true
			inRun, err := core.Verify(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := replayed.LoadProvenance(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed.Provenance, inRun.Provenance) {
				t.Error("replayed provenance differs from in-run provenance")
			}
			a, b := untimed(inRun), untimed(replayed)
			if !reflect.DeepEqual(a, b) {
				t.Error("reports differ outside provenance and timings")
			}
		})
	}
}

// untimed is a report without its wall-clock fields and replay handle.
func untimed(r *core.Report) core.Report {
	c := core.WithoutReplay(*r)
	c.Stages, c.Spans = core.StageTimes{}, nil
	return c
}

// TestLoadProvenanceDetectsDivergence replays a workload whose Setup
// draws new inputs on every call, so the replay cannot reproduce the
// verification: LoadProvenance must say so rather than return another
// run's provenance, and keep saying so.
func TestLoadProvenanceDetectsDivergence(t *testing.T) {
	w, err := workloads.ByName("ME-V1-MV")
	if err != nil {
		t.Fatal(err)
	}
	setup, calls := w.Setup, 0
	w.Setup = func(run int, m *sim.Machine, prog *asm.Program) error {
		calls++
		return setup(run+1000*calls, m, prog)
	}
	rep, err := core.Verify(w, core.Options{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := rep.LoadProvenance(); !errors.Is(err, core.ErrReplayDiverged) {
			t.Fatalf("LoadProvenance = %v, want %v", err, core.ErrReplayDiverged)
		}
		if rep.Provenance != nil {
			t.Fatal("a diverged replay filled Provenance")
		}
	}
	if calls != 4 {
		t.Errorf("Setup called %d times, want 2 runs verified and 2 replayed once", calls)
	}
}

// TestLoadProvenanceConcurrent has several goroutines read one report's
// provenance at once: they share the one replay and see its result.
// Run under -race it checks that the replay handle orders them.
func TestLoadProvenanceConcurrent(t *testing.T) {
	w, err := workloads.ByName("ME-NAIVE")
	if err != nil {
		t.Fatal(err)
	}
	setup, calls := w.Setup, atomic.Int64{}
	w.Setup = func(run int, m *sim.Machine, prog *asm.Program) error {
		calls.Add(1)
		return setup(run, m, prog)
	}
	rep, err := core.Verify(w, core.Options{Runs: 2, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	streams := make([]int, 4)
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rep.LoadProvenance(); err != nil {
				t.Error(err)
				return
			}
			for _, up := range rep.Provenance {
				streams[i] += len(up.Streams)
			}
		}()
	}
	wg.Wait()
	for i, n := range streams {
		if n == 0 || n != streams[0] {
			t.Errorf("reader %d saw %d streams, reader 0 %d", i, n, streams[0])
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("Setup called %d times, want 2 runs verified and 2 replayed once", got)
	}
}

// TestLoadProvenanceNoOp checks that LoadProvenance simulates nothing
// for a report that carries provenance or that Verify did not build.
func TestLoadProvenanceNoOp(t *testing.T) {
	w, err := workloads.ByName("ME-NAIVE")
	if err != nil {
		t.Fatal(err)
	}
	setup, calls := w.Setup, 0
	w.Setup = func(run int, m *sim.Machine, prog *asm.Program) error {
		calls++
		return setup(run, m, prog)
	}
	rep, err := core.Verify(w, core.Options{Runs: 2, Config: sim.SmallBoom(), Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	prov := rep.Provenance
	if prov == nil {
		t.Fatal("Options.Provenance recorded no provenance")
	}
	if err := rep.LoadProvenance(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || !reflect.DeepEqual(rep.Provenance, prov) {
		t.Errorf("LoadProvenance replayed a report that carried provenance (%d Setup calls)", calls)
	}
	if err := (&core.Report{}).LoadProvenance(); err != nil {
		t.Errorf("LoadProvenance of a hand-built report: %v", err)
	}
}

// TestMatrixCellsCarryProvenance checks that a grid sweep's cells carry
// provenance recorded during their runs, so BuildMatrix renders leaky
// cells without replaying them.
func TestMatrixCellsCarryProvenance(t *testing.T) {
	w, err := workloads.ByName("TAGE-HIST")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := core.ParseGridSpec("predictor=gshare,tage")
	if err != nil {
		t.Fatal(err)
	}
	setup, calls := w.Setup, 0
	w.Setup = func(run int, m *sim.Machine, prog *asm.Program) error {
		calls++
		return setup(run, m, prog)
	}
	m, err := core.VerifyMatrix(w, core.MatrixOptions{
		Options: core.Options{Runs: 2, Warmup: 2},
		Grid:    grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if c.Report == nil || c.Report.Provenance == nil {
			t.Fatalf("cell %s carries no provenance", c.Name)
		}
		if err := c.Report.LoadProvenance(); err != nil {
			t.Fatal(err)
		}
	}
	if want := 2 * len(m.Cells); calls != want {
		t.Errorf("Setup called %d times, want %d: a cell replayed its runs", calls, want)
	}
}
