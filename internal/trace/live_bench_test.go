package trace_test

import (
	"testing"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// BenchmarkOnCycleLive measures sampling on live traffic: a collector
// tracking every unit attached to a MegaBoom run of ME-V1-MV. Unlike
// BenchmarkOnCycle's frozen probe, whose rows never change after an
// iteration's first cycle, the rows here move with the kernel, so the
// event diff, provenance and attribution all do their real share of the
// work. Each iteration simulates the same run twice, untraced and
// traced; ns/cycle is the difference per simulated cycle, the sampling
// share that perfbench reports as trace.ns_per_cycle.
func BenchmarkOnCycleLive(b *testing.B) { benchSampling(b, []string{"ME-V1-MV"}, 1) }

// BenchmarkSamplingCatalogue is BenchmarkOnCycleLive over the inputs of
// one paper-suite deck: every catalogue kernel with the inputs of runs 0
// to 3 on MegaBoom. The kernels that dominate paper-suite time keep
// their rows moving differently from ME-V1-MV, so this is the sampling
// cost of a verification that records provenance.
func BenchmarkSamplingCatalogue(b *testing.B) { benchSampling(b, workloads.Names(), 4) }

// BenchmarkSamplingCatalogueVerdict is BenchmarkSamplingCatalogue with
// provenance off: the sampling a verdict alone needs, which is what
// core.Verify pays without Options.Provenance.
func BenchmarkSamplingCatalogueVerdict(b *testing.B) {
	benchSampling(b, workloads.Names(), 4, trace.WithProvenance(false))
}

// benchSampling runs each named kernel with the inputs of runs 0 to
// runs-1 on MegaBoom, untraced and traced by a collector built with
// opts, and reports the traced minus the untraced wall time per
// simulated cycle.
func benchSampling(b *testing.B, names []string, runs int, opts ...trace.Option) {
	type kernel struct {
		name  string
		prog  *asm.Program
		setup func(int, *sim.Machine, *asm.Program) error
	}
	var kernels []kernel
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := asm.Assemble(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		kernels = append(kernels, kernel{name, prog, w.Setup})
	}
	run := func(k kernel, seed int, tr sim.Tracer) (sim.Result, time.Duration) {
		m, err := sim.New(sim.MegaBoom())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(k.prog); err != nil {
			b.Fatal(err)
		}
		if k.setup != nil {
			if err := k.setup(seed, m, k.prog); err != nil {
				b.Fatal(err)
			}
		}
		if tr != nil {
			m.SetTracer(tr)
		}
		start := time.Now()
		res, err := m.Run(20_000_000)
		if err != nil {
			b.Fatalf("%s run %d: %v", k.name, seed, err)
		}
		return res, time.Since(start)
	}
	var plain, traced time.Duration
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			for seed := range runs {
				want, d := run(k, seed, nil)
				plain += d
				got, d := run(k, seed, trace.NewCollector(opts...))
				traced += d
				if got.Cycles != want.Cycles {
					b.Fatalf("%s run %d: tracing changed execution: %d cycles traced, %d untraced",
						k.name, seed, got.Cycles, want.Cycles)
				}
				cycles += got.Cycles
			}
		}
	}
	b.ReportMetric(float64(traced-plain)/float64(cycles), "ns/cycle")
}
