package trace

import (
	"reflect"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/siphash"
)

func runWithProgram(t *testing.T, src string, opts ...Option) (*Collector, *asm.Program) {
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
	return col, p
}

func TestProvenanceStreams(t *testing.T) {
	col, prog := runWithProgram(t, loopProgram)
	iters := col.Iterations()
	prov := col.Provenance()
	if len(prov) != numUnits-2 {
		t.Fatalf("provenanced units = %d want %d (all but ROB-OCPNCY and LFB-Data)",
			len(prov), numUnits-2)
	}
	textLo := prog.TextBase
	textHi := textLo + uint64(len(prog.Text))
	byUnit := map[Unit]UnitProvenance{}
	for _, up := range prov {
		byUnit[up.Unit] = up
		if up.Unit == ROBOCPNCY || up.Unit == LFBDATA {
			t.Errorf("%v must not carry provenance", up.Unit)
		}
		for _, s := range up.Streams {
			if len(s.Iters) != len(s.Hashes) {
				t.Fatalf("%v key %#x: %d iters vs %d hashes",
					up.Unit, s.Key, len(s.Iters), len(s.Hashes))
			}
			if s.Events == 0 || len(s.Iters) == 0 {
				t.Errorf("%v key %#x: empty stream survived", up.Unit, s.Key)
			}
			for i, it := range s.Iters {
				if int(it) >= len(iters) || it < 0 {
					t.Fatalf("%v key %#x: iter index %d out of range", up.Unit, s.Key, it)
				}
				if i > 0 && it <= s.Iters[i-1] {
					t.Errorf("%v key %#x: iters not strictly increasing", up.Unit, s.Key)
				}
			}
			// Keys must be instruction addresses. Wrong-path speculation
			// can fetch a little past the text end, so allow a short
			// overrun beyond the last instruction.
			if up.Direct && (s.Key < textLo || s.Key >= textHi+256) {
				t.Errorf("%v: direct key %#x outside text [%#x,%#x)",
					up.Unit, s.Key, textLo, textHi)
			}
		}
	}
	// The store issued every iteration must attribute to a PC that the
	// attribution maps also list as a writer of the buffer address.
	sq := byUnit[SQADDR]
	if len(sq.Streams) == 0 {
		t.Fatal("SQ-ADDR collected no provenance streams")
	}
	writers, _ := col.Attribution()
	known := map[uint64]bool{}
	for _, pcs := range writers {
		for _, pc := range pcs {
			known[pc] = true
		}
	}
	for _, s := range sq.Streams {
		if !known[s.Key] {
			t.Errorf("SQ-ADDR stream PC %#x not present in writer attribution", s.Key)
		}
	}
}

func TestProvenanceDeterministic(t *testing.T) {
	a, _ := runWithProgram(t, loopProgram)
	b, _ := runWithProgram(t, loopProgram)
	if !reflect.DeepEqual(a.Provenance(), b.Provenance()) {
		t.Error("identical runs produced different provenance")
	}
}

func TestProvenanceRespectsWarmup(t *testing.T) {
	col, _ := runWithProgram(t, loopProgram, WithWarmupIterations(4))
	kept := len(col.Iterations())
	if kept != 2 {
		t.Fatalf("kept iterations = %d want 2", kept)
	}
	for _, up := range col.Provenance() {
		for _, s := range up.Streams {
			for _, it := range s.Iters {
				if int(it) >= kept {
					t.Fatalf("%v key %#x references dropped iteration %d", up.Unit, s.Key, it)
				}
			}
		}
	}
}

func TestEmptyStreamHash(t *testing.T) {
	if got, want := EmptyStreamHash(), siphash.Hash(siphash.DefaultKey, nil); got != want {
		t.Errorf("EmptyStreamHash = %#x want %#x", got, want)
	}
}

// TestMergeProvenanceShiftsIterations merges two runs that keep
// different iterations: each key's merged stream is the first run's
// records followed by the second's, whose iteration indices move past
// the first run's kept iterations; events add up and keys stay sorted.
func TestMergeProvenanceShiftsIterations(t *testing.T) {
	a, _ := runWithProgram(t, loopProgram, WithWarmupIterations(4))
	b, _ := runWithProgram(t, loopProgram, WithWarmupIterations(1))
	shift := int32(len(a.Iterations()))
	want := map[Unit]map[uint64]*ProvStream{}
	for i, prov := range [][]UnitProvenance{a.Provenance(), b.Provenance()} {
		for _, up := range prov {
			if want[up.Unit] == nil {
				want[up.Unit] = map[uint64]*ProvStream{}
			}
			for _, s := range up.Streams {
				w := want[up.Unit][s.Key]
				if w == nil {
					w = &ProvStream{Key: s.Key}
					want[up.Unit][s.Key] = w
				}
				w.Events += s.Events
				for j, it := range s.Iters {
					w.Iters = append(w.Iters, it+int32(i)*shift)
					w.Hashes = append(w.Hashes, s.Hashes[j])
				}
			}
		}
	}
	merged := MergeProvenance(a, b)
	if len(merged) != len(want) {
		t.Fatalf("merged %d units, want %d", len(merged), len(want))
	}
	for _, up := range merged {
		if len(up.Streams) != len(want[up.Unit]) {
			t.Errorf("%v: %d merged streams, want %d", up.Unit, len(up.Streams), len(want[up.Unit]))
		}
		for i, s := range up.Streams {
			if i > 0 && s.Key <= up.Streams[i-1].Key {
				t.Errorf("%v: keys not ascending at %#x", up.Unit, s.Key)
			}
			if w := want[up.Unit][s.Key]; w == nil || !reflect.DeepEqual(s, *w) {
				t.Errorf("%v key %#x: merged %+v, want %+v", up.Unit, s.Key, s, w)
			}
		}
	}
}

// TestWithoutProvenanceRecordsNone runs the same program with and
// without provenance: without it no unit gets a provenance part, so no
// provenance state exists to fill during the run and Provenance is nil,
// while the verdict evidence (timed and event stores, iteration hashes,
// iterations) and the attribution pairs equal the recording run's.
func TestWithoutProvenanceRecordsNone(t *testing.T) {
	on, _ := runWithProgram(t, loopProgram)
	off, _ := runWithProgram(t, loopProgram, WithProvenance(false))
	for _, u := range AllUnits() {
		if off.states[u].prov != nil {
			t.Errorf("%v: provenance state exists with provenance off", u)
		}
	}
	if prov := off.Provenance(); prov != nil {
		t.Errorf("Provenance() = %v with provenance off, want nil", prov)
	}
	if len(on.Provenance()) == 0 {
		t.Fatal("recording run collected no provenance")
	}
	if !reflect.DeepEqual(off.Results(), on.Results()) {
		t.Error("turning provenance off changed the snapshot evidence")
	}
	if !reflect.DeepEqual(off.Iterations(), on.Iterations()) {
		t.Error("turning provenance off changed the kept iterations")
	}
	wOn, rOn := on.Attribution()
	wOff, rOff := off.Attribution()
	if len(wOn) == 0 || !reflect.DeepEqual(wOff, wOn) || !reflect.DeepEqual(rOff, rOn) {
		t.Error("turning provenance off changed the memory-access attribution")
	}
}
