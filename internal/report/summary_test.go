package report

import (
	"reflect"
	"testing"

	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// TestSummaryDerivations pins core.Report.Summary and
// core.Matrix.Summary to the verdict summaries the daemon derived
// before they existed — its own report and sweep digests, with MaxV
// read back from the rendered digest and matrix artifacts — on a leaky
// workload, a clean one and a 2x2 grid. A replayed matrix artifact must
// summarise exactly like the sweep that rendered it.
func TestSummaryDerivations(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     core.Summary
	}{
		{"ME-NAIVE", core.Summary{
			Leaky: true,
			LeakyUnits: []string{"SQ-ADDR", "SQ-PC", "LQ-ADDR", "LQ-PC", "ROB-OCPNCY", "ROB-PC",
				"LFB-Data", "LFB-ADDR", "EUU-ALU", "EUU-ADDRGEN", "EUU-DIV", "EUU-MUL",
				"NLP-ADDR", "Cache-ADDR", "TLB-ADDR", "MSHR-ADDR", "TAGE-PRED", "SPF-ADDR"},
			MaxV: 1, Iterations: 58, SimCycles: 6807,
		}},
		{"constant_time_eq", core.Summary{MaxV: 0.08785324411085338, Iterations: 60, SimCycles: 3406}},
	} {
		w, err := workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Verify(w, core.Options{Config: sim.SmallBoom(), Runs: 2, Warmup: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Summary(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Summary = %+v, want %+v", c.workload, got, c.want)
		}
		dg, err := BuildDigest(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Summary().MaxV; got != dg.MaxV() {
			t.Errorf("%s: MaxV %v, digest says %v", c.workload, got, dg.MaxV())
		}
	}

	w, err := workloads.ByName("TAGE-HIST")
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ParseGridSpec("prefetch=none,stride;predictor=gshare,tage")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.VerifyMatrix(w, core.MatrixOptions{Options: core.Options{Runs: 2, Warmup: 2}, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Summary{
		Leaky: true, LeakyUnits: []string{"TAGE-PRED"}, MaxV: 1, Cells: 4,
		LeakyCells: []string{"prefetch=none,predictor=tage", "prefetch=stride,predictor=tage"},
		Iterations: 240, SimCycles: 16316,
	}
	if got := m.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("matrix Summary = %+v, want %+v", got, want)
	}
	if got := BuildMatrix(m, 0).Summary(); !reflect.DeepEqual(got, m.Summary()) {
		t.Errorf("artifact Summary = %+v, sweep says %+v", got, m.Summary())
	}
}
