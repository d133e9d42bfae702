package trace

import (
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
)

// probeGrab captures the simulator's probe so benchmarks can drive
// Collector.OnCycle against real core state without re-simulating.
type probeGrab struct{ p *sim.Probe }

func (g *probeGrab) OnCycle(p *sim.Probe)               { g.p = p }
func (g *probeGrab) OnMark(int64, isa.MarkKind, uint64) {}

// benchProbe runs the loop program for a bounded number of cycles and
// returns a probe frozen mid-execution, with the load/store queues,
// reorder buffer, fill buffers and functional units populated.
func benchProbe(tb testing.TB) *sim.Probe {
	tb.Helper()
	prog, err := asm.Assemble(loopProgram)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	m, err := sim.New(sim.MegaBoom())
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		tb.Fatal(err)
	}
	g := &probeGrab{}
	m.SetTracer(g)
	m.Run(200) //nolint:errcheck // ErrMaxCycles expected: freeze mid-flight
	if g.p == nil {
		tb.Fatal("no probe captured")
	}
	return g.p
}

// onCycleUnits is the pinned unit set of BenchmarkOnCycle: every unit
// tracked when the set was pinned, spelled out so that adding a unit to
// the table does not silently change what the benchmark measures.
var onCycleUnits = []Unit{
	SQADDR, SQPC, LQADDR, LQPC, ROBOCPNCY, ROBPC, LFBDATA, LFBADDR,
	EUUALU, EUUADDRGEN, EUUDIV, EUUMUL, NLPADDR, CACHEADDR, TLBADDR,
	MSHRADDR, TAGEPRED, SPFADDR,
}

// BenchmarkOnCycle measures the steady-state per-cycle sampling cost of
// the collector across whole labeled iterations (the IterBegin/IterEnd
// bracket is part of the steady state: it resets the per-iteration
// recorders and folds the finished snapshot into the dedup store). The
// ns/cycle metric is the per-sampled-cycle cost the pipeline pays on
// every simulated cycle inside the region of interest.
func BenchmarkOnCycle(b *testing.B) { benchOnCycle(b, onCycleUnits...) }

// BenchmarkOnCycleSingleUnit isolates the cost of one tracked unit, so
// per-unit regressions are visible without the 18-unit aggregate.
func BenchmarkOnCycleSingleUnit(b *testing.B) { benchOnCycle(b, SQADDR) }

func benchOnCycle(b *testing.B, units ...Unit) {
	const cyclesPerIter = 64
	p := benchProbe(b)
	col := NewCollector(WithUnits(units...))
	col.OnMark(0, isa.MarkROIBegin, 0)
	iter := func(class uint64) {
		col.OnMark(0, isa.MarkIterBegin, class)
		for c := 0; c < cyclesPerIter; c++ {
			col.OnCycle(p)
		}
		col.OnMark(cyclesPerIter, isa.MarkIterEnd, 0)
	}
	for i := 0; i < 64; i++ { // reach steady state: both classes seen
		iter(uint64(i & 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(uint64(i & 1))
	}
	b.StopTimer()
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*cyclesPerIter)
	b.ReportMetric(ns, "ns/cycle")
}

// BenchmarkEventsFullReplace measures the event diff's worst case: every
// row replaces all 128 values of the previous one, so each value of the
// suffix (the whole row) is an event found only by scanning all of
// last. The ns/row metric is the cost of one such changed row.
func BenchmarkEventsFullReplace(b *testing.B) {
	const width, rowsPerIter = 128, 64
	col := NewCollector(WithUnits(LFBDATA))
	st := &col.states[LFBDATA]
	var rows [2][]uint64
	for i := range rows {
		for j := range width {
			rows[i] = append(rows[i], uint64(1+i*width+j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%rowsPerIter == 0 { // bound the event stream like an iteration
			st.evRec.Reset()
		}
		st.last = rows[i&1]
		st.events(nil, rows[(i+1)&1], width)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
