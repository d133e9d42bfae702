package sim_test

import (
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// BenchmarkSimCatalogue measures untraced simulation on pinned inputs:
// one iteration runs every catalogue kernel with the inputs of runs 0
// to 3 on MegaBoom, as one paper-suite deck does without sampling. It
// reports wall time per simulated cycle. Unlike BenchmarkSimMegaBoom's
// short loop, the long kernels keep the ROB, LDQ and STQ full, so the
// per-cycle cost of walking them shows here.
func BenchmarkSimCatalogue(b *testing.B) {
	type kernel struct {
		name  string
		prog  *asm.Program
		setup func(int, *sim.Machine, *asm.Program) error
	}
	var kernels []kernel
	for _, name := range workloads.Names() {
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
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			for run := 0; run < 4; run++ {
				m, err := sim.New(sim.MegaBoom())
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadProgram(k.prog); err != nil {
					b.Fatal(err)
				}
				if k.setup != nil {
					if err := k.setup(run, m, k.prog); err != nil {
						b.Fatal(err)
					}
				}
				res, err := m.Run(20_000_000)
				if err != nil {
					b.Fatalf("%s run %d: %v", k.name, run, err)
				}
				cycles += res.Cycles
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
