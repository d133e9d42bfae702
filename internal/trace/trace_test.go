package trace

import (
	"reflect"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
)

func runWithCollector(t *testing.T, src string, opts ...Option) *Collector {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := sim.New(sim.SmallBoom())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	col := NewCollector(opts...)
	m.SetTracer(col)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return col
}

const loopProgram = `
	.data
buf: .zero 64
	.text
_start:
	la   s4, buf
	li   s2, 6
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	sd   s2, 0(s4)
	ld   t0, 0(s4)
	mul  t1, t0, t0
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li a0, 0
	li a7, 93
	ecall
`

func TestUnitNames(t *testing.T) {
	want := map[Unit]string{
		SQADDR: "SQ-ADDR", ROBOCPNCY: "ROB-OCPNCY", LFBDATA: "LFB-Data",
		EUUADDRGEN: "EUU-ADDRGEN", NLPADDR: "NLP-ADDR", CACHEADDR: "Cache-ADDR",
	}
	for u, name := range want {
		if u.String() != name {
			t.Errorf("%d.String() = %q want %q", u, u.String(), name)
		}
	}
	if Unit(99).String() != "UNIT?" {
		t.Error("unknown unit should stringify as UNIT?")
	}
}

func TestAllUnitsComplete(t *testing.T) {
	units := AllUnits()
	if len(units) != 18 {
		t.Fatalf("AllUnits has %d entries, want Table IV's 16 plus TAGE-PRED and SPF-ADDR", len(units))
	}
	seen := make(map[Unit]bool)
	for _, u := range units {
		if seen[u] {
			t.Errorf("duplicate unit %v", u)
		}
		seen[u] = true
	}
}

func TestCollectorIterations(t *testing.T) {
	col := runWithCollector(t, loopProgram)
	iters := col.Iterations()
	if len(iters) != 6 {
		t.Fatalf("iterations = %d want 6", len(iters))
	}
	// s2 counts 6..1, parity 0,1,0,1,0,1.
	wantClasses := []uint64{0, 1, 0, 1, 0, 1}
	for i, it := range iters {
		if it.Class != wantClasses[i] {
			t.Errorf("iteration %d class = %d want %d", i, it.Class, wantClasses[i])
		}
		if it.Cycles <= 0 {
			t.Errorf("iteration %d has %d cycles", i, it.Cycles)
		}
	}
}

func TestCollectorWarmupDrop(t *testing.T) {
	col := runWithCollector(t, loopProgram, WithWarmupIterations(4))
	if got := len(col.Iterations()); got != 2 {
		t.Errorf("iterations after warmup drop = %d want 2", got)
	}
}

func TestCollectorUnitSubset(t *testing.T) {
	col := runWithCollector(t, loopProgram, WithUnits(SQADDR, EUUMUL))
	res := col.Results()
	if len(res) != 2 || res[0].Unit != SQADDR || res[1].Unit != EUUMUL {
		t.Fatalf("unexpected results: %+v", res)
	}
}

func TestCollectorCapturesActivity(t *testing.T) {
	col := runWithCollector(t, loopProgram)
	for _, ut := range col.Results() {
		if ut.Full.Unique() == 0 {
			t.Errorf("%v: no snapshots collected", ut.Unit)
		}
	}
	// The store and load queues must have observed the buffer address.
	for _, unit := range []Unit{SQADDR, LQADDR} {
		found := false
		for _, ut := range col.Results() {
			if ut.Unit != unit {
				continue
			}
			for _, e := range ut.Full.Entries() {
				for _, row := range e.Rep {
					for _, v := range row {
						if v != 0 {
							found = true
						}
					}
				}
			}
		}
		if !found {
			t.Errorf("%v: buffer address never observed", unit)
		}
	}
}

func TestCollectorIgnoresOutsideROI(t *testing.T) {
	src := `
	.text
_start:
	li   s2, 3
pre:
	iter.begin s2        # markers outside roi must be ignored
	iter.end
	addi s2, s2, -1
	bnez s2, pre
	roi.begin
	li   t0, 1
	iter.begin t0
	mul  t1, t0, t0
	iter.end
	roi.end
	li a0, 0
	li a7, 93
	ecall
`
	col := runWithCollector(t, src, WithWarmupIterations(0))
	if got := len(col.Iterations()); got != 1 {
		t.Errorf("iterations = %d want 1 (pre-ROI markers must not count)", got)
	}
}

func TestEventViewDropsPureTiming(t *testing.T) {
	// Two programs with identical event sequences but different
	// latencies between them (different div latency configs would be
	// ideal; here a dependent chain stretches timing): the full
	// snapshots must differ while the event view agrees.
	progFor := func(stretch string) string {
		return `
	.data
buf: .zero 64
	.text
_start:
	la   s4, buf
	roi.begin
	li   t0, 1
	iter.begin t0
	` + stretch + `
	sd   t0, 0(s4)
	iter.end
	roi.end
	li a0, 0
	li a7, 93
	ecall
`
	}
	colA := runWithCollector(t, progFor(""), WithWarmupIterations(0), WithUnits(SQADDR))
	colB := runWithCollector(t, progFor("mul t1, t0, t0\n\tmul t1, t1, t1\n\tmul t2, t1, t1"),
		WithWarmupIterations(0), WithUnits(SQADDR))
	fullA := colA.Results()[0].Full.Entries()[0].Hash
	fullB := colB.Results()[0].Full.Entries()[0].Hash
	evA := colA.Results()[0].NoTiming.Entries()[0].Hash
	evB := colB.Results()[0].NoTiming.Entries()[0].Hash
	if fullA == fullB {
		t.Error("full snapshots should differ (different iteration lengths)")
	}
	if evA != evB {
		t.Error("event view should be identical (same store, same address)")
	}
}

// TestCollectorIterHashes checks the per-iteration hash sequence that
// feeds the leakage heatmap: one hash per kept iteration per unit,
// aligned with Iterations(), and consistent with the deduplicated
// store (the multiset of sequence hashes equals the store's counts).
func TestCollectorIterHashes(t *testing.T) {
	col := runWithCollector(t, loopProgram, WithWarmupIterations(1))
	iters := col.Iterations()
	if len(iters) == 0 {
		t.Fatal("no iterations")
	}
	for _, ut := range col.Results() {
		if len(ut.IterHashes) != len(iters) {
			t.Fatalf("%v: %d iter hashes for %d iterations",
				ut.Unit, len(ut.IterHashes), len(iters))
		}
		seqCounts := map[uint64]int{}
		for _, h := range ut.IterHashes {
			seqCounts[h]++
		}
		storeCounts := map[uint64]int{}
		for _, e := range ut.Full.Entries() {
			storeCounts[e.Hash] += e.Total()
		}
		if len(seqCounts) != len(storeCounts) {
			t.Fatalf("%v: %d distinct sequence hashes vs %d store entries",
				ut.Unit, len(seqCounts), len(storeCounts))
		}
		for h, n := range seqCounts {
			if storeCounts[h] != n {
				t.Errorf("%v: hash %#x seen %d times in sequence, %d in store",
					ut.Unit, h, n, storeCounts[h])
			}
		}
	}
}

// TestEventsSurviveIterationBoundary replays one frozen probe, so every
// unit's row is identical on both sides of an IterEnd/IterBegin
// boundary. The new iteration must still emit that row's values as
// events: the unchanged-row shortcut compares with the previous row of
// the same iteration only. Each iteration's event stream is therefore
// the row's non-zero values, once, and both iterations hash alike.
func TestEventsSurviveIterationBoundary(t *testing.T) {
	p := benchProbe(t)
	col := NewCollector()
	col.OnMark(0, isa.MarkROIBegin, 0)
	for class := uint64(0); class < 2; class++ {
		col.OnMark(0, isa.MarkIterBegin, class)
		for c := 0; c < 3; c++ {
			col.OnCycle(p)
		}
		col.OnMark(3, isa.MarkIterEnd, 0)
	}
	active := 0
	for _, ut := range col.Results() {
		var want [][]uint64
		for _, v := range unitSpecs[ut.Unit].row(p, nil) {
			if v != 0 {
				want = append(want, []uint64{v})
			}
		}
		if len(want) > 0 {
			active++
		}
		entries := ut.NoTiming.Entries()
		if len(entries) != 1 {
			t.Errorf("%v: %d event-view snapshots over two identical iterations, want 1",
				ut.Unit, len(entries))
			continue
		}
		e := entries[0]
		if e.CountByClass[0] != 1 || e.CountByClass[1] != 1 {
			t.Errorf("%v: event-view counts %v, want one per class", ut.Unit, e.CountByClass)
		}
		if len(e.Rep) != len(want) || (len(want) > 0 && !reflect.DeepEqual(e.Rep, want)) {
			t.Errorf("%v: events %v, want %v", ut.Unit, e.Rep, want)
		}
	}
	if active < 2 {
		t.Fatalf("only %d units have a non-zero row in the frozen probe", active)
	}
	// Every key that saw an event saw one in both iterations.
	for _, up := range col.Provenance() {
		for _, s := range up.Streams {
			if len(s.Iters) != 2 || s.Hashes[0] != s.Hashes[1] {
				t.Errorf("%v key %#x: iters %v hashes %x, want both iterations alike",
					up.Unit, s.Key, s.Iters, s.Hashes)
			}
		}
	}
}

// TestCollectorUnchangedRows drives one unit through scripted rows and
// checks what the unchanged-row shortcut must preserve: each
// iteration's timed hash is HashTimed of all its rows, repeats
// included, and its event log holds exactly the values absent from the
// previous row of the same iteration. A row equal to an older row but
// not to the previous one is a change; an empty first row, after a
// non-empty last row of the iteration before, emits nothing; a first
// row equal to the previous iteration's last row still emits its values.
func TestCollectorUnchangedRows(t *testing.T) {
	iters := []struct {
		rows   [][]uint64
		events []uint64
	}{
		{[][]uint64{{1, 2}, {1, 2}, {1, 2}, {1, 3}, {1, 2}, {1, 2, 0}, nil, {}}, []uint64{1, 2, 3, 2}},
		{[][]uint64{nil, {1, 2}, {1, 2}}, []uint64{1, 2}},
		{[][]uint64{{1, 2}, {}, {2, 1}}, []uint64{1, 2, 2, 1}},
		{[][]uint64{{0, 0}, {0, 0}, {0, 5}}, []uint64{5}},
	}
	p := benchProbe(t)
	var cur []uint64
	col := NewCollector(WithUnits(SQADDR))
	st := &col.states[SQADDR]
	st.spec = &unitSpec{name: "scripted", kind: provNone,
		row: func(_ *sim.Probe, dst []uint64) []uint64 { return append(dst, cur...) },
		gen: cycleCounter()}
	col.OnMark(0, isa.MarkROIBegin, 0)
	for i, it := range iters {
		col.OnMark(0, isa.MarkIterBegin, uint64(i))
		for _, cur = range it.rows {
			col.OnCycle(p)
		}
		col.OnMark(int64(len(it.rows)), isa.MarkIterEnd, 0)
		var want [][]uint64
		for _, v := range it.events {
			want = append(want, []uint64{v})
		}
		if got := st.evRec.Rows(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("iteration %d: events %v, want %v", i, got, want)
		}
		if got, want := st.iterHashes[i], snapshot.HashTimed(it.rows); got != want {
			t.Errorf("iteration %d: timed hash %#x, want HashTimed %#x", i, got, want)
		}
	}
}
