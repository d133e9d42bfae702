package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry"
	"microsampler/internal/trace"
)

// verifyNamed runs the pipeline on a named workload built by the
// workloads package; to avoid an import cycle in tests, the assembly is
// duplicated here only for the tiny smoke workload — full case-study
// verdicts are tested in the root package. This file focuses on the
// pipeline mechanics.

const smokeWorkload = `
	.text
_start:
	li   s2, 8            # iterations
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	mul  t0, s2, s2
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li   a0, 0
	li   a7, 93
	ecall
`

// leakWorkload executes a secret-dependent extra instruction: iteration
// class 1 performs an additional multiply.
const leakWorkload = `
	.text
_start:
	li   s2, 40
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	mul  t0, s2, s2
	beqz s3, skip
	mul  t0, t0, s2
skip:
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li   a0, 0
	li   a7, 93
	ecall
`

func TestVerifySmoke(t *testing.T) {
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 2, Warmup: 1, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "smoke" || rep.Config != "SmallBoom" || rep.Runs != 2 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
	if len(rep.Units) != len(trace.AllUnits()) {
		t.Errorf("got %d unit results, want %d", len(rep.Units), len(trace.AllUnits()))
	}
	// 8 iterations per run, 1 warmup dropped, 2 runs.
	if len(rep.Iterations) != 14 {
		t.Errorf("iterations = %d want 14", len(rep.Iterations))
	}
	if rep.SimCycles == 0 {
		t.Error("no simulation cycles recorded")
	}
}

func TestVerifyDetectsControlFlowLeak(t *testing.T) {
	rep, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 3, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AnyLeak() {
		t.Fatal("secret-dependent multiply not detected")
	}
	mul, ok := rep.Unit(trace.EUUMUL)
	if !ok {
		t.Fatal("EUU-MUL result missing")
	}
	if !mul.Leaky() {
		t.Errorf("EUU-MUL not flagged: %v", mul.Assoc)
	}
	// The extra multiply's PC must surface as a unique feature of the
	// class-1 iterations.
	if mul.UniqueFeatures == nil {
		t.Fatal("no feature extraction for leaky unit")
	}
	if len(mul.UniqueFeatures[1]) == 0 {
		t.Errorf("class 1 should have unique MUL PCs, got %v", mul.UniqueFeatures)
	}
}

func TestVerifyCleanWorkloadHasNoLeaks(t *testing.T) {
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 3, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if leaks := rep.LeakyUnits(); len(leaks) != 0 {
		names := make([]string, 0, len(leaks))
		for _, l := range leaks {
			names = append(names, l.Unit.String())
		}
		t.Errorf("clean workload flagged leaky: %v", names)
	}
}

func TestVerifyMeasureStages(t *testing.T) {
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 1, Warmup: 1, MeasureStages: true, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages.Simulate <= 0 {
		t.Error("simulate stage time missing")
	}
	if rep.Stages.Total() < rep.Stages.Simulate {
		t.Error("total stage time inconsistent")
	}
}

func TestVerifyErrors(t *testing.T) {
	t.Run("assembly error", func(t *testing.T) {
		_, err := Verify(Workload{Name: "bad", Source: "_start:\n bogus\n"},
			Options{})
		if err == nil || !strings.Contains(err.Error(), "unknown mnemonic") {
			t.Errorf("want assembly error, got %v", err)
		}
	})
	t.Run("no iterations", func(t *testing.T) {
		_, err := Verify(Workload{Name: "empty", Source: `
_start:
	li a0, 0
	li a7, 93
	ecall
`}, Options{Runs: 1, Warmup: 0})
		if !errors.Is(err, ErrNoIterations) {
			t.Errorf("want ErrNoIterations, got %v", err)
		}
	})
	t.Run("nonzero exit", func(t *testing.T) {
		_, err := Verify(Workload{Name: "fail", Source: `
_start:
	roi.begin
	li  t0, 1
	iter.begin t0
	iter.end
	roi.end
	li a0, 7
	li a7, 93
	ecall
`}, Options{Runs: 1, Warmup: 0})
		if err == nil || !strings.Contains(err.Error(), "exited with code 7") {
			t.Errorf("want exit-code error, got %v", err)
		}
	})
	t.Run("setup error", func(t *testing.T) {
		w := Workload{
			Name:   "s",
			Source: smokeWorkload,
			Setup: func(int, *sim.Machine, *asm.Program) error {
				return errors.New("boom")
			},
		}
		_, err := Verify(w, Options{Runs: 1})
		if err == nil || !strings.Contains(err.Error(), "setup: boom") {
			t.Errorf("want setup error, got %v", err)
		}
	})
}

func TestVerifyNegativeOptions(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative runs", Options{Runs: -1}, "Runs"},
		{"negative max cycles", Options{MaxCycles: -5}, "MaxCycles"},
		{"parallel below auto", Options{Parallel: -2}, "Parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Verify(Workload{Name: "neg", Source: smokeWorkload}, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("opts %+v: want error mentioning %q, got %v", tc.opts, tc.want, err)
			}
		})
	}
	// ParallelAuto itself must remain valid.
	if _, err := Verify(Workload{Name: "auto", Source: smokeWorkload},
		Options{Runs: 2, Warmup: 1, Config: sim.SmallBoom(), Parallel: ParallelAuto}); err != nil {
		t.Errorf("ParallelAuto rejected: %v", err)
	}
}

// spinWorkload never exits: a run of it ends only when cancelled or
// when it exhausts its cycle budget.
const spinWorkload = `
	.text
_start:
spin:
	j    spin
`

func TestParallelFailureCancelsSiblings(t *testing.T) {
	// Run 0 fails during setup; every other run spins until cancelled.
	// With failure propagation, the in-flight sibling is cancelled and
	// the pool stops claiming queued runs, so a pool of 2 starts run 0
	// and at most the one sibling claimed before the failure landed.
	// The cycle budget bounds a cancellation regression: a sibling then
	// spins to maxCycles, which fails the cycle check (and, once queued
	// siblings start too, the elapsed check) instead of hanging.
	const runs = 16
	const maxCycles = 30_000_000
	var started atomic.Int64
	w := Workload{
		Name:   "failfast",
		Source: spinWorkload,
		Setup: func(run int, m *sim.Machine, prog *asm.Program) error {
			started.Add(1)
			if run == 0 {
				return errors.New("injected failure")
			}
			return nil
		},
	}
	probe := NewRunProbe()
	start := time.Now()
	_, err := Verify(w, Options{Runs: runs, Warmup: 1, Config: sim.SmallBoom(),
		Parallel: 2, MaxCycles: maxCycles, Probe: probe})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("want the injected failure surfaced, got %v", err)
	}
	if n := started.Load(); n < 1 || n > 2 {
		t.Errorf("%d of %d runs started, want 1 or 2: cancellation did not propagate", n, runs)
	}
	if c := probe.Snapshot().Cycles; c >= maxCycles {
		t.Errorf("siblings simulated %d cycles, want fewer than the %d budget", c, maxCycles)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("failure took %v to surface; siblings were not cancelled", elapsed)
	}
}

func TestSequentialFailureSkipsRemainingRuns(t *testing.T) {
	var started atomic.Int64
	w := Workload{
		Name:   "failfast-seq",
		Source: smokeWorkload,
		Setup: func(run int, m *sim.Machine, prog *asm.Program) error {
			started.Add(1)
			if run == 1 {
				return errors.New("injected failure")
			}
			return nil
		},
	}
	_, err := Verify(w, Options{Runs: 8, Warmup: 1, Config: sim.SmallBoom()})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("want the injected failure surfaced, got %v", err)
	}
	if n := started.Load(); n != 2 {
		t.Errorf("%d runs started, want 2 (runs after the failure must be skipped)", n)
	}
}

// spanNames decodes a JSONL span sink into the multiset of span names.
func spanNames(t *testing.T, sink string) map[string]int {
	t.Helper()
	names := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(sink), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		name, _ := m["name"].(string)
		names[name]++
	}
	return names
}

func TestSpansClosedOnFailure(t *testing.T) {
	t.Run("run failure", func(t *testing.T) {
		var buf syncBuffer
		_, err := Verify(Workload{Name: "fail", Source: `
_start:
	roi.begin
	li  t0, 1
	iter.begin t0
	iter.end
	roi.end
	li a0, 7
	li a7, 93
	ecall
`}, Options{Runs: 2, Warmup: 0, Config: sim.SmallBoom(), TraceSink: &buf})
		if err == nil {
			t.Fatal("want run failure")
		}
		names := spanNames(t, buf.String())
		for _, want := range []string{"verify", "simulate", "merge"} {
			if names[want] == 0 {
				t.Errorf("span %q not closed on the failing path (sink: %v)", want, names)
			}
		}
	})
	t.Run("assemble failure", func(t *testing.T) {
		var buf syncBuffer
		_, err := Verify(Workload{Name: "bad", Source: "_start:\n bogus\n"},
			Options{TraceSink: &buf})
		if err == nil {
			t.Fatal("want assembly failure")
		}
		names := spanNames(t, buf.String())
		if names["verify"] == 0 || names["assemble"] == 0 {
			t.Errorf("verify/assemble spans not closed: %v", names)
		}
	})
	t.Run("no iterations", func(t *testing.T) {
		var buf syncBuffer
		_, err := Verify(Workload{Name: "empty", Source: `
_start:
	li a0, 0
	li a7, 93
	ecall
`}, Options{Runs: 1, Warmup: 0, Config: sim.SmallBoom(), TraceSink: &buf})
		if !errors.Is(err, ErrNoIterations) {
			t.Fatalf("want ErrNoIterations, got %v", err)
		}
		names := spanNames(t, buf.String())
		for _, want := range []string{"verify", "simulate", "merge"} {
			if names[want] == 0 {
				t.Errorf("span %q not closed on the no-iterations path: %v", want, names)
			}
		}
	})
}

func TestMergeAttribution(t *testing.T) {
	// Reference implementation: the former quadratic membership scan.
	ref := func(dst, src map[uint64][]uint64) {
		for addr, pcs := range src {
			have := dst[addr]
			for _, pc := range pcs {
				found := false
				for _, h := range have {
					if h == pc {
						found = true
						break
					}
				}
				if !found {
					have = append(have, pc)
				}
			}
			for i := 1; i < len(have); i++ {
				for j := i; j > 0 && have[j] < have[j-1]; j-- {
					have[j], have[j-1] = have[j-1], have[j]
				}
			}
			dst[addr] = have
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		got := map[uint64][]uint64{}
		want := map[uint64][]uint64{}
		for merge := 0; merge < 4; merge++ {
			src := map[uint64][]uint64{}
			for a := 0; a < 5; a++ {
				addr := uint64(rng.Intn(6))
				n := rng.Intn(5)
				set := map[uint64]struct{}{}
				for i := 0; i < n; i++ {
					set[uint64(rng.Intn(10))] = struct{}{}
				}
				pcs := make([]uint64, 0, len(set))
				for pc := range set {
					pcs = append(pcs, pc)
				}
				sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
				src[addr] = pcs
			}
			srcCopy := map[uint64][]uint64{}
			for a, pcs := range src {
				srcCopy[a] = append([]uint64(nil), pcs...)
			}
			mergeAttribution(got, src)
			ref(want, srcCopy)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d addrs, want %d", trial, len(got), len(want))
		}
		for addr, pcs := range want {
			g := got[addr]
			if len(g) != len(pcs) {
				t.Fatalf("trial %d addr %d: %v want %v", trial, addr, g, pcs)
			}
			for i := range pcs {
				if g[i] != pcs[i] {
					t.Fatalf("trial %d addr %d: %v want %v", trial, addr, g, pcs)
				}
			}
		}
	}
}

func TestVerifyDeterministic(t *testing.T) {
	opts := Options{Runs: 2, Warmup: 1, Config: sim.SmallBoom()}
	r1, err := Verify(Workload{Name: "leak", Source: leakWorkload}, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Verify(Workload{Name: "leak", Source: leakWorkload}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SimCycles != r2.SimCycles {
		t.Errorf("cycles differ: %d vs %d", r1.SimCycles, r2.SimCycles)
	}
	for i := range r1.Units {
		if r1.Units[i].Assoc.V != r2.Units[i].Assoc.V ||
			r1.Units[i].Assoc.P != r2.Units[i].Assoc.P {
			t.Errorf("unit %v stats differ across identical runs", r1.Units[i].Unit)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 4, Warmup: 1, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 4, Warmup: 1, Config: sim.SmallBoom(), Parallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.SimCycles != par.SimCycles {
		t.Errorf("cycles differ: %d vs %d", seq.SimCycles, par.SimCycles)
	}
	if len(seq.Iterations) != len(par.Iterations) {
		t.Fatalf("iteration counts differ")
	}
	for i := range seq.Iterations {
		if seq.Iterations[i] != par.Iterations[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v",
				i, seq.Iterations[i], par.Iterations[i])
		}
	}
	for i := range seq.Units {
		if seq.Units[i].Assoc != par.Units[i].Assoc {
			t.Errorf("unit %v stats differ: %+v vs %+v",
				seq.Units[i].Unit, seq.Units[i].Assoc, par.Units[i].Assoc)
		}
	}
}

func TestVerifyContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := VerifyContext(ctx, Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 2, Config: sim.SmallBoom()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestIterationClassesBalanced(t *testing.T) {
	rep, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 1, Warmup: 2, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	count := map[uint64]int{}
	for _, it := range rep.Iterations {
		count[it.Class]++
		if it.Cycles <= 0 {
			t.Errorf("nonpositive iteration length: %+v", it)
		}
	}
	if count[0] == 0 || count[1] == 0 {
		t.Errorf("classes unbalanced: %v", count)
	}
}

func TestMemoryAttribution(t *testing.T) {
	src := `
	.data
buf: .zero 64
	.text
_start:
	la   s2, buf
	li   s3, 6
	roi.begin
loop:
	andi s4, s3, 1
	iter.begin s4
	sd   s3, 0(s2)
	ld   t0, 0(s2)
	iter.end
	addi s3, s3, -1
	bnez s3, loop
	roi.end
	li a0, 0
	li a7, 93
	ecall
`
	rep, err := Verify(Workload{Name: "attr", Source: src},
		Options{Runs: 1, Warmup: 1, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Program == nil {
		t.Fatal("program missing from report")
	}
	bufAddr := rep.Program.MustSymbol("buf")
	writers := rep.StoreWriters[bufAddr]
	readers := rep.LoadReaders[bufAddr]
	if len(writers) == 0 {
		t.Fatal("no writer PCs attributed to buf")
	}
	if len(readers) == 0 {
		t.Fatal("no reader PCs attributed to buf")
	}
	if sym := rep.Program.SymbolAt(writers[0]); sym != "loop+0x8" {
		t.Errorf("writer PC symbol = %q want loop+0x8", sym)
	}
	if sym := rep.Program.DataSymbolAt(bufAddr); sym != "buf" {
		t.Errorf("data symbol = %q want buf", sym)
	}
}

func TestWarmupDefaultAndSentinel(t *testing.T) {
	defaulted := func(o Options) Options {
		t.Helper()
		out, err := o.withDefaults()
		if err != nil {
			t.Fatalf("withDefaults(%+v): %v", o, err)
		}
		return out
	}
	if got := defaulted(Options{}).Warmup; got != 2 {
		t.Errorf("zero Warmup should default to 2, got %d", got)
	}
	if got := defaulted(Options{Warmup: NoWarmup}).Warmup; got != 0 {
		t.Errorf("NoWarmup should yield 0, got %d", got)
	}
	if got := defaulted(Options{Warmup: 5}).Warmup; got != 5 {
		t.Errorf("explicit Warmup clobbered: %d", got)
	}
	// End-to-end: NoWarmup keeps every labeled iteration (8 per run).
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 1, Warmup: NoWarmup, Config: sim.SmallBoom()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) != 8 {
		t.Errorf("NoWarmup kept %d iterations, want 8", len(rep.Iterations))
	}
}

func TestSimStatsAndIPCConsistency(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 2, Warmup: 1, Config: sim.SmallBoom(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim.Cycles != rep.SimCycles {
		t.Errorf("SimStats.Cycles %d != SimCycles %d", rep.Sim.Cycles, rep.SimCycles)
	}
	if rep.Sim.Instructions == 0 || rep.Sim.Branches == 0 {
		t.Errorf("sim stats empty: %+v", rep.Sim)
	}
	// The telemetry counters must agree with the aggregated sim.Result
	// values, and the IPC gauge with SimStats.IPC().
	if got := reg.Counter("sim_cycles_total").Value(); got != uint64(rep.Sim.Cycles) {
		t.Errorf("sim_cycles_total = %d want %d", got, rep.Sim.Cycles)
	}
	if got := reg.Counter("sim_instructions_total").Value(); got != rep.Sim.Instructions {
		t.Errorf("sim_instructions_total = %d want %d", got, rep.Sim.Instructions)
	}
	wantIPC := float64(rep.Sim.Instructions) / float64(rep.Sim.Cycles)
	if got := reg.Gauge("sim_ipc").Value(); got != wantIPC || got != rep.Sim.IPC() {
		t.Errorf("sim_ipc gauge = %g want %g", got, wantIPC)
	}
	if rep.Sim.IPC() <= 0 || rep.Sim.IPC() > float64(sim.SmallBoom().RetireWidth) {
		t.Errorf("IPC out of range: %g", rep.Sim.IPC())
	}
	// Per-unit sample volume: every tracked unit sampled the same
	// number of in-iteration cycles.
	if len(rep.Samples) != len(trace.AllUnits()) {
		t.Fatalf("samples for %d units, want %d", len(rep.Samples), len(trace.AllUnits()))
	}
	var first uint64
	for _, u := range trace.AllUnits() {
		n := rep.Samples[u]
		if n == 0 {
			t.Fatalf("unit %v sampled nothing", u)
		}
		if first == 0 {
			first = n
		} else if n != first {
			t.Errorf("unit %v sampled %d rows, others %d", u, n, first)
		}
	}
	if got := reg.Counter("trace_samples_total.SQ-ADDR").Value(); got != rep.Samples[trace.SQADDR] {
		t.Errorf("trace_samples_total.SQ-ADDR = %d want %d", got, rep.Samples[trace.SQADDR])
	}
}

func TestSpansEmittedUnderParallel(t *testing.T) {
	var buf syncBuffer
	rep, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 4, Warmup: 1, Config: sim.SmallBoom(), Parallel: 4,
			TraceSink: &buf, MeasureStages: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) < 20 {
		t.Errorf("only %d spans recorded", len(rep.Spans))
	}
	byName := map[string]int{}
	rootID := uint64(0)
	for _, s := range rep.Spans {
		byName[s.Name]++
		if s.Name == "verify" {
			rootID = s.ID
		}
	}
	for _, want := range []string{"verify", "assemble", "simulate", "run",
		"machine-setup", "execute", "simulate.untraced", "parse", "stats",
		"stats.unit", "extract"} {
		if byName[want] == 0 {
			t.Errorf("no %q span", want)
		}
	}
	if byName["run"] != 4 || byName["parse"] != 4 {
		t.Errorf("per-run spans: run=%d parse=%d want 4 each", byName["run"], byName["parse"])
	}
	// Parent linkage: every non-root span's parent must exist.
	ids := map[uint64]bool{}
	for _, s := range rep.Spans {
		ids[s.ID] = true
	}
	for _, s := range rep.Spans {
		if s.ID != rootID && !ids[s.Parent] {
			t.Errorf("span %q parent %d not recorded", s.Name, s.Parent)
		}
	}
	// Enriched stage stats must be populated in parallel MeasureStages mode.
	if rep.Stages.RunWall.N != 4 || rep.Stages.RunSim.N != 4 || rep.Stages.RunParse.N != 4 {
		t.Errorf("run stats not aggregated: %+v", rep.Stages)
	}
	if rep.Stages.RunWall.Max < rep.Stages.RunWall.Min {
		t.Errorf("run wall stats inconsistent: %+v", rep.Stages.RunWall)
	}
	if rep.Stages.Simulate <= 0 {
		t.Error("parallel MeasureStages lost the simulate stage total")
	}
	// The JSONL sink must carry one well-formed object per span.
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		lines++
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if m["name"] == "" || m["id"] == nil {
			t.Errorf("span line missing fields: %v", m)
		}
	}
	if lines != len(rep.Spans) {
		t.Errorf("sink lines %d != spans %d", lines, len(rep.Spans))
	}
}

func TestParallelMeasureStagesMatchesSequential(t *testing.T) {
	opts := Options{Runs: 4, Warmup: 1, Config: sim.SmallBoom(), MeasureStages: true}
	seq, err := Verify(Workload{Name: "leak", Source: leakWorkload}, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 4
	par, err := Verify(Workload{Name: "leak", Source: leakWorkload}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.SimCycles != par.SimCycles {
		t.Errorf("cycles differ: %d vs %d", seq.SimCycles, par.SimCycles)
	}
	for i := range seq.Units {
		if seq.Units[i].Assoc != par.Units[i].Assoc {
			t.Errorf("unit %v stats differ under parallel MeasureStages",
				seq.Units[i].Unit)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for parallel span sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSeedOffset(t *testing.T) {
	record := func(got *[]int) Workload {
		return Workload{
			Name:   "smoke",
			Source: smokeWorkload,
			Setup: func(run int, m *sim.Machine, prog *asm.Program) error {
				*got = append(*got, run)
				return nil
			},
		}
	}
	var base, shifted []int
	if _, err := Verify(record(&base),
		Options{Runs: 3, Warmup: 1, Config: sim.SmallBoom()}); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(record(&shifted),
		Options{Runs: 3, Warmup: 1, Config: sim.SmallBoom(), SeedOffset: 700}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !equalInts(base, want) {
		t.Errorf("default offset passed runs %v, want %v", base, want)
	}
	if want := []int{700, 701, 702}; !equalInts(shifted, want) {
		t.Errorf("SeedOffset=700 passed runs %v, want %v", shifted, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReportIterHashes(t *testing.T) {
	w := Workload{Name: "iterhash", Source: smokeWorkload}
	rep, err := Verify(w, Options{Config: sim.SmallBoom(), Runs: 3, Warmup: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IterHashes) == 0 {
		t.Fatal("report has no per-iteration hashes")
	}
	for _, u := range rep.Units {
		hashes := rep.IterHashes[u.Unit]
		if len(hashes) != len(rep.Iterations) {
			t.Fatalf("%v: %d iter hashes for %d iterations",
				u.Unit, len(hashes), len(rep.Iterations))
		}
		// Hash multiset must agree with the merged store totals.
		total := 0
		for _, e := range u.Store.Entries() {
			total += e.Total()
		}
		if total != len(hashes) {
			t.Errorf("%v: store total %d vs %d hashes", u.Unit, total, len(hashes))
		}
	}

	// Parallel merge must preserve the sequential run-order sequence.
	seq, err := Verify(w, Options{Config: sim.SmallBoom(), Runs: 3, Warmup: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rep.Units {
		a, b := rep.IterHashes[u.Unit], seq.IterHashes[u.Unit]
		if len(a) != len(b) {
			t.Fatalf("%v: parallel %d vs sequential %d hashes", u.Unit, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: hash %d differs between parallel and sequential", u.Unit, i)
			}
		}
	}
}

func TestVerifyStructuredLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lg := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, &slog.HandlerOptions{
		Level: slog.LevelDebug,
	}))
	w := Workload{Name: "logged", Source: smokeWorkload}
	_, err := Verify(w, Options{
		Config: sim.SmallBoom(), Runs: 2, Warmup: 1, Parallel: 2,
		Logger: lg, RunID: "job-42",
	})
	if err != nil {
		t.Fatal(err)
	}
	var started, runDone, complete int
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		if rec["run_id"] != "job-42" {
			t.Fatalf("log record missing run_id: %q", line)
		}
		if rec["workload"] != "logged" {
			t.Fatalf("log record missing workload: %q", line)
		}
		switch rec["msg"] {
		case "verify started":
			started++
		case "run complete":
			runDone++
		case "verify complete":
			complete++
			if _, ok := rec["leaky"]; !ok {
				t.Error("verify complete record missing verdict")
			}
		}
	}
	if started != 1 || runDone != 2 || complete != 1 {
		t.Errorf("log events started=%d runDone=%d complete=%d", started, runDone, complete)
	}

	// Failures must be logged too.
	buf.Reset()
	bad := Workload{Name: "bad", Source: smokeWorkload,
		Setup: func(run int, m *sim.Machine, prog *asm.Program) error {
			return errors.New("boom")
		}}
	if _, err := Verify(bad, Options{Config: sim.SmallBoom(), Runs: 1, Logger: lg}); err == nil {
		t.Fatal("expected setup failure")
	}
	if !strings.Contains(buf.String(), "verify failed") {
		t.Errorf("failure not logged:\n%s", buf.String())
	}
}

// lockedWriter serialises handler writes: with Parallel > 1 log records
// originate from worker goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
