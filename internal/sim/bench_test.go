package sim

import (
	"fmt"
	"strings"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
)

// benchProgram is a mixed integer/memory/branch workload.
const benchProgram = `
	.data
buf: .zero 8192
	.text
_start:
	la   s2, buf
	li   s3, 2000
	li   s4, 0
loop:
	andi t0, s3, 127
	slli t0, t0, 6
	add  t0, t0, s2
	sd   s3, 0(t0)
	ld   t1, 0(t0)
	mul  t2, t1, t1
	add  s4, s4, t2
	andi t3, s3, 3
	beqz t3, skip
	xor  s4, s4, t1
skip:
	addi s3, s3, -1
	bnez s3, loop
	li   a0, 0
	li   a7, 93
	ecall
`

func benchConfig(b *testing.B, cfg Config) {
	b.Helper()
	prog, err := asm.Assemble(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// TestRunSteadyStateAllocs pins that the pipeline allocates nothing per
// instruction: a run of benchProgram at 8000 loop iterations makes as
// many allocations as one at 2000, give or take a few, so every
// allocation of a run is machine set-up. Each length is measured as its
// fewest allocations over several runs: the runtime's own allocations
// (more of them under -race) vary from run to run and do not grow with
// the run's length, while one per instruction would raise the minimum.
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, cfg := range []Config{MegaBoom(), SmallBoom()} {
		short, long := runAllocs(t, cfg, 2000), runAllocs(t, cfg, 8000)
		if long > short+4 {
			t.Errorf("%s: %.0f allocations per run at 8000 iterations, %.0f at 2000",
				cfg.Name, long, short)
		}
	}
}

// runAllocs returns the fewest allocations of one New+LoadProgram+Run
// of benchProgram with its loop count set to iters, over five runs.
func runAllocs(t *testing.T, cfg Config, iters int) float64 {
	t.Helper()
	src := strings.Replace(benchProgram, "li   s3, 2000", fmt.Sprintf("li   s3, %d", iters), 1)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var retired uint64
	run := func() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		retired = res.Instructions
	}
	allocs := testing.AllocsPerRun(1, run)
	for range 4 {
		allocs = min(allocs, testing.AllocsPerRun(1, run))
	}
	if retired < uint64(iters)*10 {
		t.Fatalf("%d iterations retired only %d instructions", iters, retired)
	}
	return allocs
}

// BenchmarkSimMegaBoom measures raw simulation throughput on the large
// configuration (no tracing).
func BenchmarkSimMegaBoom(b *testing.B) { benchConfig(b, MegaBoom()) }

// BenchmarkSimSmallBoom measures raw simulation throughput on the small
// configuration.
func BenchmarkSimSmallBoom(b *testing.B) { benchConfig(b, SmallBoom()) }

// BenchmarkSimTraced measures throughput with a per-cycle tracer
// attached (the dominant cost of the verification pipeline).
func BenchmarkSimTraced(b *testing.B) {
	prog, err := asm.Assemble(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	tr := &countingTracer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(MegaBoom())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		m.SetTracer(tr)
		if _, err := m.Run(50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// countingTracer samples a spread of probe rows every cycle into one
// reused scratch buffer, so the tracer itself stays allocation-free.
type countingTracer struct{ buf []uint64 }

func (t *countingTracer) OnCycle(p *Probe) {
	_ = p.StoreQueue()
	_ = p.LoadQueue()
	t.buf = p.AppendROBPCs(t.buf[:0])
	t.buf = p.AppendALUBusy(t.buf[:0])
	t.buf = p.AppendCacheRequests(t.buf[:0])
	t.buf = p.AppendTLBPages(t.buf[:0])
	t.buf = p.AppendMSHRAddrs(t.buf[:0])
	t.buf = p.AppendLFBAddrs(t.buf[:0])
	t.buf = p.AppendLFBData(t.buf[:0])
	t.buf = p.AppendPrefetchAddrs(t.buf[:0])
}

func (*countingTracer) OnMark(int64, isa.MarkKind, uint64) {}
