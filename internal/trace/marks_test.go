package trace_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// walkConfig is one configuration the differential tests run on.
type walkConfig struct {
	name string
	cfg  sim.Config
}

// walkConfigs is the configuration set of the simulator's differential
// tests: both core sizes, folding at dispatch and at issue, the stride
// prefetcher and the TAGE predictor.
func walkConfigs() []walkConfig {
	bypass := sim.MegaBoom()
	bypass.FastBypass = true
	stride := sim.MegaBoom()
	stride.NextLinePrefetcher = false
	stride.StridePrefetcher = true
	tage := sim.MegaBoom()
	tage.TAGEPredictor = true
	return []walkConfig{
		{"megaboom", sim.MegaBoom()},
		{"smallboom", sim.SmallBoom()},
		{"fastbypass", bypass},
		{"stride", stride},
		{"tage", tage},
	}
}

// markKernels keep the LSQ and ROB full (ME-V2-SAFE, CRYPTO_memcmp),
// squash (SPECTRE-PHT), forward (ME-NAIVE), divide (CT-DIV) and stream
// through the prefetchers and fill buffer (SPF-STREAM, AES-TTABLE).
var markKernels = []string{"ME-V2-SAFE", "CRYPTO_memcmp", "SPECTRE-PHT", "ME-NAIVE",
	"CT-DIV", "SPF-STREAM", "AES-TTABLE"}

// runKernel runs a catalogue kernel at seed 0 with tr attached.
func runKernel(t *testing.T, name string, cfg sim.Config, tr sim.Tracer) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if w.Setup != nil {
		if err := w.Setup(0, m, prog); err != nil {
			t.Fatal(err)
		}
	}
	m.SetTracer(tr)
	if _, err := m.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
}

// markTracer rebuilds every unit's row every cycle and checks it
// against the unit's change mark: a row that differs from the previous
// cycle's must come with a changed mark. It counts, per unit, the
// cycles whose mark held and those whose row changed.
type markTracer struct {
	err           error
	cycles        int
	rows          [][]uint64
	gens          []uint64
	held, changed []int
}

func newMarkTracer() *markTracer {
	n := len(trace.AllUnits())
	return &markTracer{rows: make([][]uint64, n), gens: make([]uint64, n),
		held: make([]int, n), changed: make([]int, n)}
}

func (m *markTracer) OnCycle(p *sim.Probe) {
	if m.err != nil {
		return
	}
	for i, u := range trace.AllUnits() {
		gen := trace.UnitGen(u, p)
		row := trace.UnitRow(u, p, nil)
		if m.cycles > 0 {
			same := slices.Equal(row, m.rows[i])
			if !same {
				m.changed[i]++
			}
			if gen == m.gens[i] {
				m.held[i]++
				if !same {
					m.err = fmt.Errorf("cycle %d: %v row changed from %x to %x under the same mark %#x",
						m.cycles, u, m.rows[i], row, gen)
					return
				}
			}
		}
		m.rows[i], m.gens[i] = row, gen
	}
	m.cycles++
}

func (*markTracer) OnMark(int64, isa.MarkKind, uint64) {}

// TestChangeMarksCoverRows is the differential test of the change
// marks the collector skips unchanged units by: on every cycle of every
// kernel and configuration, a unit whose rebuilt row differs from its
// previous row must show a changed mark. Across the runs every unit
// must both change its row and hold its mark, so no mark goes untested
// and none passes by changing every cycle.
func TestChangeMarksCoverRows(t *testing.T) {
	units := trace.AllUnits()
	held, changed := make([]int, len(units)), make([]int, len(units))
	for _, c := range walkConfigs() {
		for _, name := range markKernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				tr := newMarkTracer()
				runKernel(t, name, c.cfg, tr)
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				for i := range units {
					held[i] += tr.held[i]
					changed[i] += tr.changed[i]
				}
			})
		}
	}
	for i, u := range units {
		if held[i] == 0 || changed[i] == 0 {
			t.Errorf("%v: mark held on %d cycles, row changed on %d", u, held[i], changed[i])
		}
	}
}

// attrTracer drives a collector and, beside it, the reference
// attribution: on every cycle inside a labeled iteration, warmup
// included, it walks both queues and records every resolved entry's
// (address, PC) pair. At every IterEnd the collector's writers and
// readers must equal the reference's.
type attrTracer struct {
	col              *trace.Collector
	roi, inIter      bool
	writers, readers map[uint64]map[uint64]bool
	ends             int
	err              error
}

func (a *attrTracer) OnCycle(p *sim.Probe) {
	a.col.OnCycle(p)
	if !a.roi || !a.inIter {
		return
	}
	for _, q := range []struct {
		entries []sim.LSQEntry
		pairs   map[uint64]map[uint64]bool
	}{{p.StoreQueue(), a.writers}, {p.LoadQueue(), a.readers}} {
		for _, e := range q.entries {
			if e.Valid {
				if q.pairs[e.Addr] == nil {
					q.pairs[e.Addr] = map[uint64]bool{}
				}
				q.pairs[e.Addr][e.PC] = true
			}
		}
	}
}

func (a *attrTracer) OnMark(cycle int64, kind isa.MarkKind, class uint64) {
	a.col.OnMark(cycle, kind, class)
	switch kind {
	case isa.MarkROIBegin:
		a.roi = true
	case isa.MarkROIEnd:
		a.roi, a.inIter = false, false
	case isa.MarkIterBegin:
		a.inIter = a.inIter || a.roi
	case isa.MarkIterEnd:
		if !a.roi || !a.inIter || a.err != nil {
			return
		}
		a.inIter = false
		a.ends++
		writers, readers := a.col.Attribution()
		if want := flatten(a.writers); !reflect.DeepEqual(writers, want) {
			a.err = fmt.Errorf("iteration end %d: writers %v, queue walk %v", a.ends, writers, want)
		} else if want := flatten(a.readers); !reflect.DeepEqual(readers, want) {
			a.err = fmt.Errorf("iteration end %d: readers %v, queue walk %v", a.ends, readers, want)
		}
	}
}

func flatten(pairs map[uint64]map[uint64]bool) map[uint64][]uint64 {
	out := make(map[uint64][]uint64, len(pairs))
	for addr, pcs := range pairs {
		for pc := range pcs {
			out[addr] = append(out[addr], pc)
		}
		sort.Slice(out[addr], func(i, j int) bool { return out[addr][i] < out[addr][j] })
	}
	return out
}

// TestAttributionMatchesQueueWalk is the differential test of
// attribution at address resolution: after every labeled iteration the
// collector's writer and reader pairs, gathered from one queue walk per
// iteration plus the addresses resolved in each cycle, must equal those
// of walking both queues on every cycle.
func TestAttributionMatchesQueueWalk(t *testing.T) {
	for _, c := range walkConfigs() {
		for _, name := range markKernels {
			t.Run(name+"@"+c.name, func(t *testing.T) {
				tr := &attrTracer{col: trace.NewCollector(trace.WithWarmupIterations(1)),
					writers: map[uint64]map[uint64]bool{}, readers: map[uint64]map[uint64]bool{}}
				runKernel(t, name, c.cfg, tr)
				if tr.err != nil {
					t.Fatal(tr.err)
				}
				if tr.ends < 2 {
					t.Fatalf("only %d labeled iterations ended", tr.ends)
				}
			})
		}
	}
}
