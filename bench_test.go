// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VII). Each benchmark runs the corresponding
// experiment end-to-end and prints the artefact (chart, table or
// histogram) the paper reports; wall-clock time of the verification
// pipeline is what the benchmark measures.
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package microsampler_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"microsampler"
)

var printOnce sync.Map

// emit prints an artefact once per benchmark name, so repeated
// calibration calls of the benchmark body do not duplicate output.
func emit(name, artefact string) {
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		fmt.Fprintf(os.Stdout, "\n───── %s ─────\n%s", name, artefact)
	}
}

func verifyNamed(b *testing.B, name string, cfg microsampler.Config,
	runs int) *microsampler.Report {
	b.Helper()
	w, err := microsampler.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := microsampler.Verify(w, microsampler.Options{
		Config: cfg, Runs: runs, Warmup: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable2ContingencyTable regenerates Table II: the contingency
// table of snapshot-hash frequencies per key-bit class for the store
// queue of the ME-V1-MV case study.
func BenchmarkTable2ContingencyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "ME-V1-MV", microsampler.MegaBoom(), 4)
		emit("Table II (SQ-ADDR contingency table, ME-V1-MV)",
			microsampler.RenderContingency(rep, microsampler.SQADDR, 8))
	}
}

// BenchmarkTable5OpenSSLPrimitives regenerates Table V: the sweep over
// the 28 OpenSSL constant-time primitives. Only CRYPTO_memcmp (via its
// return-value-dependent caller) may be flagged.
func BenchmarkTable5OpenSSLPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-36s %s\n", "Constant-time OpenSSL primitive", "Leakage")
		flagged := 0
		names := append([]string{"CRYPTO_memcmp"}, microsampler.OpenSSLPrimitiveNames()...)
		for _, name := range names {
			runs := 4
			if name == "CRYPTO_memcmp" {
				runs = 6
			}
			rep := verifyNamed(b, name, microsampler.MegaBoom(), runs)
			verdict := "x"
			if rep.AnyLeak() {
				verdict = "LEAK"
				flagged++
			}
			out += fmt.Sprintf("%-36s %s\n", name, verdict)
		}
		emit("Table V (OpenSSL constant-time primitive sweep)", out)
		if flagged != 1 {
			b.Fatalf("Table V: %d primitives flagged, want exactly 1 (CRYPTO_memcmp)", flagged)
		}
	}
}

// BenchmarkTable6StageBreakdown regenerates Table VI: per-stage analysis
// time for ME-V1-CV (the paper runs 4 1024-bit keys; this runs 4 32-bit
// keys — the relative stage shape, dominated by simulation and trace
// parsing, is the reproduced quantity).
func BenchmarkTable6StageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := microsampler.WorkloadByName("ME-V1-CV")
		if err != nil {
			b.Fatal(err)
		}
		rep, err := microsampler.Verify(w, microsampler.Options{
			Config: microsampler.MegaBoom(), Runs: 4, Warmup: 4,
			MeasureStages: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		emit("Table VI (stage breakdown, ME-V1-CV, 4 keys)",
			microsampler.RenderStages(rep))
	}
}

// BenchmarkTable7Scalability regenerates Table VII: MicroSampler's
// near-linear scaling across SmallBoom -> MegaBoom versus the formal
// baseline's blow-up across the 1x ALU -> 8x SCARV designs.
func BenchmarkTable7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := microsampler.SmallBoom()
		mega := microsampler.MegaBoom()

		w, err := microsampler.WorkloadByName("ME-V1-CV")
		if err != nil {
			b.Fatal(err)
		}
		timeFor := func(cfg microsampler.Config) (float64, int) {
			rep, err := microsampler.Verify(w, microsampler.Options{
				Config: cfg, Runs: 4, Warmup: 4, MeasureStages: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			return rep.Stages.Total().Seconds(), cfg.CoreStateBits()
		}
		tSmall, bitsSmall := timeFor(small)
		tMega, bitsMega := timeFor(mega)

		aluRes, err := microsampler.FormalCheck(microsampler.FormalALU(), 64)
		if err != nil {
			b.Fatal(err)
		}
		scarvRes, err := microsampler.FormalCheck(microsampler.FormalSCARV(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if !aluRes.Holds() || !scarvRes.Holds() {
			b.Fatal("formal baseline reported spurious violations")
		}

		out := fmt.Sprintf("%-14s %-18s %12s %10s\n", "Tool", "Design (size)", "Analysis", "Scaling")
		out += fmt.Sprintf("%-14s %-18s %12.3fs\n", "MicroSampler",
			fmt.Sprintf("SmallBoom (%dKb)", bitsSmall/1000), tSmall)
		out += fmt.Sprintf("%-14s %-18s %12.3fs %8.1fx size / %.1fx time\n", "",
			fmt.Sprintf("MegaBoom (%dKb)", bitsMega/1000), tMega,
			float64(bitsMega)/float64(bitsSmall), tMega/tSmall)
		out += fmt.Sprintf("%-14s %-18s %12.3fs\n", "Formal (2-safety)",
			fmt.Sprintf("ALU (%d bits)", aluRes.StateBits), aluRes.Elapsed.Seconds())
		out += fmt.Sprintf("%-14s %-18s %12.3fs %8.1fx size / %.1fx time\n", "",
			fmt.Sprintf("SCARV (%d bits)", scarvRes.StateBits),
			scarvRes.Elapsed.Seconds(),
			float64(scarvRes.StateBits)/float64(aluRes.StateBits),
			scarvRes.Elapsed.Seconds()/aluRes.Elapsed.Seconds())
		emit("Table VII (scalability vs formal verification)", out)

		formalBlowup := scarvRes.Elapsed.Seconds() / aluRes.Elapsed.Seconds()
		msGrowth := tMega / tSmall
		if formalBlowup < 8 {
			b.Fatalf("formal blow-up %.1fx not superlinear for 8x design", formalBlowup)
		}
		if msGrowth > 8 {
			b.Fatalf("MicroSampler growth %.1fx exceeds design-size ratio", msGrowth)
		}
	}
}

// BenchmarkFig3MEV1CV regenerates Fig. 3: the compiler-vulnerability
// case leaks through (almost) every tracked unit.
func BenchmarkFig3MEV1CV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "ME-V1-CV", microsampler.MegaBoom(), 6)
		emit("Fig 3 (Cramér's V per unit, ME-V1-CV)", microsampler.RenderChart(rep))
		if n := len(rep.LeakyUnits()); n < 12 {
			b.Fatalf("Fig 3: only %d leaky units, want almost all", n)
		}
		b.ReportMetric(float64(len(rep.LeakyUnits())), "leaky-units")
	}
}

// BenchmarkFig4MEV1MV regenerates Fig. 4: the branchless variant leaks
// only through the address-carrying memory units.
func BenchmarkFig4MEV1MV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "ME-V1-MV", microsampler.MegaBoom(), 6)
		emit("Fig 4 (Cramér's V per unit, ME-V1-MV)", microsampler.RenderChart(rep))
		sq, _ := rep.Unit(microsampler.SQADDR)
		sqpc, _ := rep.Unit(microsampler.SQPC)
		if !sq.Leaky() || sqpc.Leaky() {
			b.Fatal("Fig 4 shape wrong: want SQ-ADDR leaky, SQ-PC clean")
		}
		b.ReportMetric(float64(len(rep.LeakyUnits())), "leaky-units")
	}
}

// BenchmarkFig5FeatureUniqueness regenerates Fig. 5: the unique SQ-ADDR
// features per key-bit class are the dst/dummy store addresses.
func BenchmarkFig5FeatureUniqueness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "ME-V1-MV", microsampler.MegaBoom(), 6)
		emit("Fig 5 (SQ-ADDR feature uniqueness, ME-V1-MV)",
			microsampler.RenderFeatures(rep, microsampler.SQADDR))
		sq, _ := rep.Unit(microsampler.SQADDR)
		if len(sq.UniqueFeatures[0]) == 0 || len(sq.UniqueFeatures[1]) == 0 {
			b.Fatal("Fig 5: both classes must have unique store addresses")
		}
	}
}

// BenchmarkFig6TimingDistributions regenerates Fig. 6: overlapping
// iteration-timing distributions without cache pressure (6a) and a
// clear separation once the dummy region is evicted between uses (6b).
func BenchmarkFig6TimingDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		repA := verifyNamed(b, "ME-V1-MV-6A", microsampler.MegaBoom(), 6)
		repB := verifyNamed(b, "ME-V1-MV-6B", microsampler.MegaBoom(), 6)
		emit("Fig 6a (no prior access)",
			microsampler.RenderHistogram("ME-V1-MV-6A", repA.Iterations))
		emit("Fig 6b (dst resident)",
			microsampler.RenderHistogram("ME-V1-MV-6B", repB.Iterations))
		mA := microsampler.MeanCyclesByClass(repA.Iterations)
		mB := microsampler.MeanCyclesByClass(repB.Iterations)
		sep := func(m map[uint64]float64) float64 {
			d := m[0] - m[1]
			if d < 0 {
				d = -d
			}
			return d
		}
		if sep(mA) > 3 {
			b.Fatalf("Fig 6a: distributions separated by %.1f cycles, want overlap", sep(mA))
		}
		if sep(mB) < 5 || mB[0] < mB[1] {
			b.Fatalf("Fig 6b: want dst-class (bit 1) faster by >=5 cycles, got %+v", mB)
		}
		b.ReportMetric(sep(mB), "fig6b-separation-cycles")
	}
}

// BenchmarkFig7MEV2Safe regenerates Fig. 7: the BearSSL conditional copy
// shows no statistically significant correlation on the baseline core.
func BenchmarkFig7MEV2Safe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "ME-V2-SAFE", microsampler.MegaBoom(), 6)
		emit("Fig 7 (Cramér's V per unit, ME-V2-Safe)", microsampler.RenderChart(rep))
		if rep.AnyLeak() {
			b.Fatalf("Fig 7: safe kernel flagged: %s", microsampler.RenderSummary(rep))
		}
	}
}

// BenchmarkFig9FastBypass regenerates Fig. 9: the same safe kernel on a
// core with the fast-bypass optimisation, with and without timing
// information in the snapshots.
func BenchmarkFig9FastBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microsampler.MegaBoom()
		cfg.FastBypass = true
		rep := verifyNamed(b, "ME-V2-SAFE", cfg, 6)
		emit("Fig 9 (ME-V2-FB, with/without timing)",
			microsampler.RenderTimingChart(rep))
		sq, _ := rep.Unit(microsampler.SQADDR)
		alu, _ := rep.Unit(microsampler.EUUALU)
		rob, _ := rep.Unit(microsampler.ROBOCPNCY)
		if !sq.Leaky() {
			b.Fatal("Fig 9: SQ-ADDR must correlate with timing included")
		}
		if sq.AssocNoTiming.Leaky() {
			b.Fatal("Fig 9: SQ-ADDR correlation must disappear without timing")
		}
		// The folded AND survives timing removal on the ALU (it never
		// executes for key bit 0) and on the reorder buffer (the fused
		// entry changes the occupancy sequence).
		if !alu.AssocNoTiming.Leaky() || !rob.AssocNoTiming.Leaky() {
			b.Fatal("Fig 9: EUU-ALU and ROB occupancy must survive timing removal")
		}
	}
}

// BenchmarkExtAESKeyDistinguishing is the AES extension study: classic
// T-table AES-128 versus the table-preload countermeasure, as a
// two-candidate-key distinguishing experiment under cache pressure.
func BenchmarkExtAESKeyDistinguishing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ttable := verifyNamed(b, "AES-TTABLE", microsampler.MegaBoom(), 4)
		preload := verifyNamed(b, "AES-PRELOAD", microsampler.MegaBoom(), 4)
		emit("Extension: AES key distinguishing",
			microsampler.RenderSummary(ttable)+
				microsampler.RenderSummary(preload))
		chacha := verifyNamed(b, "CHACHA20", microsampler.MegaBoom(), 4)
		emit("Extension: ChaCha20 (ARX, constant-time by construction)",
			microsampler.RenderSummary(chacha))
		if n := len(ttable.LeakyUnits()); n < 12 {
			b.Fatalf("T-table AES flagged only %d units", n)
		}
		if chacha.AnyLeak() {
			b.Fatal("ChaCha20 wrongly flagged")
		}
		lq, _ := preload.Unit(microsampler.LQADDR)
		mshr, _ := preload.Unit(microsampler.MSHRADDR)
		if !lq.Leaky() || mshr.Leaky() {
			b.Fatal("preload countermeasure shape wrong")
		}
		b.ReportMetric(float64(len(preload.LeakyUnits())), "preload-leaky-units")
	}
}

// BenchmarkExtWindowedExponentiation is the multi-class extension
// study: fixed-window exponentiation with a 4-valued secret class per
// iteration, comparing the secret-indexed power table against the
// constant-time scan.
func BenchmarkExtWindowedExponentiation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lkup := verifyNamed(b, "ME-WIN4-LKUP", microsampler.MegaBoom(), 5)
		safe := verifyNamed(b, "ME-WIN4-SAFE", microsampler.MegaBoom(), 5)
		emit("Extension: windowed exponentiation (4 classes)",
			microsampler.RenderSummary(lkup)+microsampler.RenderSummary(safe)+
				microsampler.RenderContingency(lkup, microsampler.LQADDR, 6))
		if lq, _ := lkup.Unit(microsampler.LQADDR); !lq.Leaky() {
			b.Fatal("window lookup leak not detected")
		}
		if safe.AnyLeak() {
			b.Fatal("scan-select variant wrongly flagged")
		}
	}
}

// BenchmarkExtSpectrePHT is the transient-execution extension study: a
// bounds-check-bypass victim whose secret dependence exists only in
// mispredicted (squashed) execution. It must be flagged on the
// memory-observation units with the two transient probe lines as the
// extracted features, and stay clean on the architectural-activity
// units.
func BenchmarkExtSpectrePHT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "SPECTRE-PHT", microsampler.MegaBoom(), 8)
		emit("Extension: Spectre-PHT (transient-only leakage)",
			microsampler.RenderSummary(rep)+
				microsampler.RenderFeatures(rep, microsampler.LQADDR))
		lq, _ := rep.Unit(microsampler.LQADDR)
		mshr, _ := rep.Unit(microsampler.MSHRADDR)
		alu, _ := rep.Unit(microsampler.EUUALU)
		if !lq.Leaky() || !mshr.Leaky() || alu.Leaky() {
			b.Fatal("Spectre-PHT shape wrong")
		}
	}
}

// BenchmarkAblationDataDepDivider is the DESIGN.md ablation for the
// divider model: the CT-DIV kernel (branchless, constant addresses,
// secret-width divide) is clean on the fixed-latency divider and flagged
// on the early-terminating one — constant-time principle 3 in action.
func BenchmarkAblationDataDepDivider(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed := verifyNamed(b, "CT-DIV", microsampler.MegaBoom(), 4)
		cfg := microsampler.MegaBoom()
		cfg.DataDepDivide = true
		dd := verifyNamed(b, "CT-DIV", cfg, 4)
		emit("Ablation: divider model (CT-DIV)",
			"fixed latency:  "+microsampler.RenderSummary(fixed)+
				"early-out:      "+microsampler.RenderSummary(dd))
		if fixed.AnyLeak() {
			b.Fatal("fixed-latency divider flagged a clean kernel")
		}
		if div, _ := dd.Unit(microsampler.EUUDIV); !div.Leaky() {
			b.Fatal("early-out divider leak not detected")
		}
	}
}

// BenchmarkAblationPrefetcher is the DESIGN.md ablation for prefetcher
// coverage: without the next-line prefetcher its evidence disappears but
// the other address units still flag ME-V1-MV.
func BenchmarkAblationPrefetcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microsampler.MegaBoom()
		cfg.NextLinePrefetcher = false
		rep := verifyNamed(b, "ME-V1-MV", cfg, 4)
		emit("Ablation: prefetcher disabled (ME-V1-MV)",
			microsampler.RenderSummary(rep))
		nlp, _ := rep.Unit(microsampler.NLPADDR)
		sq, _ := rep.Unit(microsampler.SQADDR)
		if nlp.Leaky() || !sq.Leaky() {
			b.Fatal("prefetcher ablation shape wrong")
		}
	}
}

// BenchmarkFig10MemcmpTransient regenerates Fig. 10: CRYPTO_memcmp with
// a dependent caller branch leaks only through the reorder buffer.
func BenchmarkFig10MemcmpTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := verifyNamed(b, "CT-MEM-CMP", microsampler.MegaBoom(), 8)
		emit("Fig 10 (Cramér's V per unit, CT-MEM-CMP)", microsampler.RenderChart(rep))
		rob, _ := rep.Unit(microsampler.ROBPC)
		if !rob.Leaky() {
			b.Fatal("Fig 10: ROB-PC must be flagged")
		}
		for _, u := range rep.LeakyUnits() {
			if u.Unit != microsampler.ROBPC && u.Unit != microsampler.ROBOCPNCY {
				b.Fatalf("Fig 10: unexpected leaky unit %v", u.Unit)
			}
		}
	}
}

// BenchmarkVerifyBaseline is the no-telemetry reference for
// BenchmarkVerifyWithTelemetry: the same workload and options with all
// observability surfaces off.
func BenchmarkVerifyBaseline(b *testing.B) {
	w, err := microsampler.WorkloadByName("ME-V1-MV")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microsampler.Verify(w, microsampler.Options{
			Config: microsampler.SmallBoom(), Runs: 2, Warmup: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyWithTelemetry measures the full observability path
// with no sink attached: a metrics registry plus in-memory span
// retention. Compare against BenchmarkVerifyBaseline; the instrumented
// run must stay within a few percent, because instrumentation is
// per-run/per-stage, never per-cycle.
func BenchmarkVerifyWithTelemetry(b *testing.B) {
	w, err := microsampler.WorkloadByName("ME-V1-MV")
	if err != nil {
		b.Fatal(err)
	}
	reg := microsampler.NewMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microsampler.Verify(w, microsampler.Options{
			Config: microsampler.SmallBoom(), Runs: 2, Warmup: 2,
			Metrics: reg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingThroughput measures the end-to-end ingest rate of
// the per-cycle sampler: total state rows fed into the snapshot
// pipeline per second of wall-clock verification time. This is the
// number the allocation-free hot path moves. It is a profiling aid;
// cross-commit performance records come from perfbench/run.sh.
func BenchmarkSamplingThroughput(b *testing.B) {
	w, err := microsampler.WorkloadByName("ME-V1-MV")
	if err != nil {
		b.Fatal(err)
	}
	var rows uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := microsampler.Verify(w, microsampler.Options{
			Config: microsampler.SmallBoom(), Runs: 2, Warmup: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range rep.Samples {
			rows += n
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkMatrixSweep measures configuration-grid sweep throughput:
// the TAGE-HIST config-flip workload fanned across a 2×4 grid
// (predictor × prefetcher, 8 cells), cells verified concurrently. The
// custom cells/s metric is the capacity number for sizing larger
// hardware-space sweeps.
func BenchmarkMatrixSweep(b *testing.B) {
	w, err := microsampler.WorkloadByName("TAGE-HIST")
	if err != nil {
		b.Fatal(err)
	}
	grid, err := microsampler.ParseGridSpec("prefetch=nlp,none,stride,both;predictor=gshare,tage")
	if err != nil {
		b.Fatal(err)
	}
	var cells int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := microsampler.MatrixOptions{Grid: grid, CellParallel: -1}
		opts.Runs = 2
		opts.Warmup = 2
		m, err := microsampler.VerifyMatrix(w, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range m.Cells {
			if c.Err != "" {
				b.Fatalf("cell %s: %s", c.Name, c.Err)
			}
		}
		cells += len(m.Cells)
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}
