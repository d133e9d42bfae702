package snapshot

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHashMatrixDeterministic(t *testing.T) {
	m := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	if HashMatrix(m) != HashMatrix(m) {
		t.Error("hash not deterministic")
	}
}

func TestHashMatrixShapeSensitive(t *testing.T) {
	a := [][]uint64{{1, 2}, {3}}
	b := [][]uint64{{1}, {2, 3}}
	c := [][]uint64{{1, 2, 3}}
	if HashMatrix(a) == HashMatrix(b) || HashMatrix(a) == HashMatrix(c) {
		t.Error("matrices with different shapes must hash differently")
	}
}

func TestHashMatrixValueSensitive(t *testing.T) {
	f := func(vals []uint64, idx uint8) bool {
		if len(vals) == 0 {
			return true
		}
		m1 := [][]uint64{append([]uint64(nil), vals...)}
		m2 := [][]uint64{append([]uint64(nil), vals...)}
		i := int(idx) % len(vals)
		m2[0][i] ^= 1
		return HashMatrix(m1) != HashMatrix(m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidate(t *testing.T) {
	in := [][]uint64{{1, 2}, {1, 2}, {1, 2}, {3}, {3}, {1, 2}}
	out := Consolidate(in)
	want := [][]uint64{{1, 2}, {3}, {1, 2}}
	if len(out) != len(want) {
		t.Fatalf("consolidated to %d rows, want %d", len(out), len(want))
	}
	for i := range want {
		if !rowsEqual(out[i], want[i]) {
			t.Errorf("row %d = %v want %v", i, out[i], want[i])
		}
	}
	// Must not alias the input.
	out[0][0] = 99
	if in[0][0] == 99 {
		t.Error("Consolidate aliases input storage")
	}
}

func TestConsolidateEmpty(t *testing.T) {
	if got := Consolidate(nil); len(got) != 0 {
		t.Errorf("Consolidate(nil) = %v", got)
	}
}

func TestRecorderMatchesHashMatrix(t *testing.T) {
	const seed = 3
	t.Logf("rng seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 50; trial++ {
		rows := make([][]uint64, rng.Intn(20))
		for i := range rows {
			row := make([]uint64, rng.Intn(5)+1)
			for j := range row {
				row[j] = uint64(rng.Intn(4)) // small domain: duplicates likely
			}
			rows[i] = row
		}
		r := NewRecorder()
		for _, row := range rows {
			r.AddRow(row)
		}
		full, noTiming, kept := r.Finish()
		if full != HashMatrix(rows) {
			t.Fatalf("trial %d: incremental full hash mismatch", trial)
		}
		if noTiming != HashMatrix(Consolidate(rows)) {
			t.Fatalf("trial %d: incremental no-timing hash mismatch", trial)
		}
		if len(kept) != len(rows) {
			t.Fatalf("trial %d: kept %d rows want %d", trial, len(kept), len(rows))
		}
	}
}

func TestRecorderTimingInvariance(t *testing.T) {
	// Two recordings that differ only in how long each state persists
	// must agree on the no-timing hash and disagree on the full hash.
	r1, r2 := NewRecorder(), NewRecorder()
	for i := 0; i < 3; i++ {
		r1.AddRow([]uint64{7})
	}
	r1.AddRow([]uint64{9})
	r2.AddRow([]uint64{7})
	for i := 0; i < 5; i++ {
		r2.AddRow([]uint64{9})
	}
	f1, n1, _ := r1.Finish()
	f2, n2, _ := r2.Finish()
	if n1 != n2 {
		t.Error("no-timing hashes should match")
	}
	if f1 == f2 {
		t.Error("full hashes should differ")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.AddRow([]uint64{1})
	r.Reset()
	if r.Cycles() != 0 {
		t.Error("reset did not clear rows")
	}
	r.AddRow([]uint64{2})
	full, _, _ := r.Finish()
	if full != HashMatrix([][]uint64{{2}}) {
		t.Error("reset recorder hash wrong")
	}
}

func TestStoreCountsAndDedup(t *testing.T) {
	s := NewStore()
	mA := [][]uint64{{1, 2}}
	mB := [][]uint64{{3, 4}}
	hA, hB := HashMatrix(mA), HashMatrix(mB)
	for i := 0; i < 5; i++ {
		s.Observe(0, hA, mA)
	}
	for i := 0; i < 3; i++ {
		s.Observe(1, hB, mB)
	}
	s.Observe(1, hA, mA)
	if s.Unique() != 2 {
		t.Fatalf("unique = %d want 2", s.Unique())
	}
	ents := s.Entries()
	if ents[0].Hash != hA || ents[1].Hash != hB {
		t.Error("entries not in first-seen order")
	}
	if ents[0].CountByClass[0] != 5 || ents[0].CountByClass[1] != 1 {
		t.Errorf("counts wrong: %v", ents[0].CountByClass)
	}
	if ents[0].Total() != 6 || ents[1].Total() != 3 {
		t.Error("totals wrong")
	}
	modal := s.ModalByClass()
	if modal[0].Hash != hA || modal[1].Hash != hB {
		t.Error("modal entries wrong")
	}
}

func TestStoreRepIsCopied(t *testing.T) {
	s := NewStore()
	m := [][]uint64{{42}}
	s.Observe(0, HashMatrix(m), m)
	m[0][0] = 0
	if s.Entries()[0].Rep[0][0] != 42 {
		t.Error("store representative aliases caller rows")
	}
}

// TestStoreRepRowsShareOneArray pins the flat copy Observe makes of a
// new snapshot: the representative equals the observed rows, empty
// rows included, and appending to one row never writes into the next.
func TestStoreRepRowsShareOneArray(t *testing.T) {
	s := NewStore()
	m := [][]uint64{{1, 2}, {}, {3}, {4, 5, 6}}
	s.Observe(0, HashMatrix(m), m)
	rep := s.Entries()[0].Rep
	if !reflect.DeepEqual(rep, m) {
		t.Fatalf("Rep = %v, want %v", rep, m)
	}
	_ = append(rep[0], 99)
	_ = append(rep[1], 98)
	if !reflect.DeepEqual(rep, m) {
		t.Errorf("appending to a Rep row overwrote another: %v, want %v", rep, m)
	}
}

func TestStoreMerge(t *testing.T) {
	a, b := NewStore(), NewStore()
	m1 := [][]uint64{{1}}
	m2 := [][]uint64{{2}}
	m3 := [][]uint64{{3}}
	h1, h2, h3 := HashMatrix(m1), HashMatrix(m2), HashMatrix(m3)
	a.Observe(0, h1, m1)
	a.Observe(1, h2, m2)
	b.Observe(0, h1, m1) // overlaps with a
	b.Observe(1, h3, m3) // new to a
	b.Observe(1, h3, m3)
	a.Merge(b)
	if a.Unique() != 3 {
		t.Fatalf("unique after merge = %d want 3", a.Unique())
	}
	ents := a.Entries()
	if ents[0].Hash != h1 || ents[0].CountByClass[0] != 2 {
		t.Errorf("merged counts wrong: %+v", ents[0].CountByClass)
	}
	if ents[2].Hash != h3 || ents[2].CountByClass[1] != 2 {
		t.Errorf("new entry wrong: %+v", ents[2])
	}
	if ents[2].Rep[0][0] != 3 {
		t.Error("representative not carried over")
	}
}

func TestAddValueMatchesSingleValueRow(t *testing.T) {
	// The streaming event API must be hash-identical to building the
	// equivalent single-value rows: the collector switched from
	// AddRow([]uint64{v}) to AddValue(v) and the snapshot identity of
	// every event stream has to survive that switch.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		vals := make([]uint64, rng.Intn(30))
		for i := range vals {
			vals[i] = uint64(rng.Intn(5)) // duplicates likely
		}
		a, b := NewRecorder(), NewRecorder()
		for _, v := range vals {
			a.AddValue(v)
			b.AddRow([]uint64{v})
		}
		af, an := a.Hashes()
		bf, bn := b.Hashes()
		if af != bf || an != bn {
			t.Fatalf("trial %d: AddValue (%x,%x) != AddRow (%x,%x)",
				trial, af, an, bf, bn)
		}
		rows := a.Rows()
		if len(rows) != len(vals) {
			t.Fatalf("trial %d: %d rows want %d", trial, len(rows), len(vals))
		}
		for i, v := range vals {
			if len(rows[i]) != 1 || rows[i][0] != v {
				t.Fatalf("trial %d row %d = %v want [%d]", trial, i, rows[i], v)
			}
		}
	}
}

func TestRecorderHashesIdempotent(t *testing.T) {
	r := NewRecorder()
	r.AddRow([]uint64{1, 2})
	r.AddValue(3)
	f1, n1 := r.Hashes()
	f2, n2 := r.Hashes()
	if f1 != f2 || n1 != n2 {
		t.Error("Hashes must be callable repeatedly without changing")
	}
	r.AddRow([]uint64{4})
	f3, _ := r.Hashes()
	if f3 == f1 {
		t.Error("hash did not change after more rows")
	}
}

func TestRecorderRowsSurviveArenaGrowth(t *testing.T) {
	// Row views are rebuilt from offsets, so arena reallocation while
	// recording must not corrupt earlier rows.
	r := NewRecorder()
	want := make([][]uint64, 0, 200)
	for i := 0; i < 200; i++ {
		row := []uint64{uint64(i), uint64(i * 3)}
		r.AddRow(row)
		want = append(want, row)
	}
	got := r.Rows()
	if len(got) != len(want) {
		t.Fatalf("rows = %d want %d", len(got), len(want))
	}
	for i := range want {
		if !rowsEqual(got[i], want[i]) {
			t.Fatalf("row %d = %v want %v", i, got[i], want[i])
		}
	}
	if HashMatrix(got) != HashMatrix(want) {
		t.Error("hash mismatch after growth")
	}
}

func TestObserveFrom(t *testing.T) {
	s := NewStore()
	r := NewRecorder()
	r.AddRow([]uint64{5, 6})
	h, _ := r.Hashes()
	s.ObserveFrom(0, h, r)
	s.ObserveFrom(0, h, r)
	s.ObserveFrom(1, h, r)
	if s.Unique() != 1 {
		t.Fatalf("unique = %d want 1", s.Unique())
	}
	e := s.Entries()[0]
	if e.CountByClass[0] != 2 || e.CountByClass[1] != 1 {
		t.Errorf("counts wrong: %v", e.CountByClass)
	}
	// The stored representative must not alias the recorder's arena.
	r.Reset()
	r.AddRow([]uint64{99, 99})
	if e.Rep[0][0] != 5 || e.Rep[0][1] != 6 {
		t.Errorf("representative aliases recorder arena: %v", e.Rep)
	}
}

func TestRecorderAddRowReportsChange(t *testing.T) {
	r := NewRecorder()
	steps := []struct {
		row  []uint64
		want bool
	}{
		{[]uint64{1, 2}, true}, // first row of an iteration
		{[]uint64{1, 2}, false},
		{[]uint64{1, 2}, false},
		{[]uint64{1, 3}, true},
		{[]uint64{1, 2}, true}, // equals an older row, not the previous one
		{[]uint64{1, 2, 0}, true},
		{nil, true},
		{[]uint64{}, false},
	}
	for i, s := range steps {
		if got := r.AddRow(s.row); got != s.want {
			t.Errorf("step %d AddRow(%v) = %v want %v", i, s.row, got, s.want)
		}
	}
	// Reset starts a new iteration: a row equal to the last one before
	// the reset is still the iteration's first, so it is a change.
	r.Reset()
	if !r.AddRow(nil) {
		t.Error("first row after Reset reported unchanged")
	}
}
