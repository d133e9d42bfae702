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
func BenchmarkOnCycleLive(b *testing.B) {
	w, err := workloads.ByName("ME-V1-MV")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	machine := func() *sim.Machine {
		m, err := sim.New(sim.MegaBoom())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := w.Setup(0, m, prog); err != nil {
			b.Fatal(err)
		}
		return m
	}
	run := func(m *sim.Machine) (sim.Result, time.Duration) {
		start := time.Now()
		res, err := m.Run(20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(start)
	}
	var plain, traced time.Duration
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want, d := run(machine())
		plain += d
		m := machine()
		m.SetTracer(trace.NewCollector())
		got, d := run(m)
		traced += d
		if got.Cycles != want.Cycles {
			b.Fatalf("tracing changed execution: %d cycles traced, %d untraced", got.Cycles, want.Cycles)
		}
		cycles += got.Cycles
	}
	b.ReportMetric(float64(traced-plain)/float64(cycles), "ns/cycle")
}
