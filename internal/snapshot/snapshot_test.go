package snapshot

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"microsampler/internal/siphash"
)

// TestHashTimedLayout pins the v2 timed encoding word by word: leading
// empty rows count as repeats of the empty previous row, a changed row
// absorbs the repeat count, its shift k and its suffix as a
// length-tagged row, and the final repeat count closes the stream.
func TestHashTimedLayout(t *testing.T) {
	rows := [][]uint64{{}, {1, 2}, {1, 2}, {2, 3, 4}, {5}, {5}, {5}}
	h := siphash.New(siphash.DefaultKey)
	for _, w := range []uint64{
		1,                  // c0: one empty row
		0, 2 | 1<<63, 1, 2, // k1 = 0, S1 = [1 2]
		1,                  // c1
		1, 2 | 1<<63, 3, 4, // k2 = 1: [2] is kept, S2 = [3 4]
		0,               // c2
		3, 1 | 1<<63, 5, // k3 = 3: nothing is kept, S3 = [5]
		2, // c3 closes the stream
	} {
		h.WriteUint64(w)
	}
	if got, want := HashTimed(rows), h.Sum64(); got != want {
		t.Errorf("HashTimed = %#x, want %#x", got, want)
	}
}

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

func TestAddValueMatchesSingleValueRow(t *testing.T) {
	// The recorder's event log hashes like HashMatrix over the
	// equivalent one-value rows, and Rows returns those rows.
	const seed = 11
	t.Logf("rng seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 50; trial++ {
		rows := make([][]uint64, rng.Intn(30))
		r := NewRecorder()
		for i := range rows {
			v := uint64(rng.Intn(5)) // small domain: duplicates likely
			rows[i] = []uint64{v}
			r.AddValue(v)
		}
		if r.Hash() != HashMatrix(rows) {
			t.Fatalf("trial %d: incremental hash mismatch", trial)
		}
		if got := r.Rows(); len(got) != len(rows) || (len(rows) > 0 && !reflect.DeepEqual(got, rows)) {
			t.Fatalf("trial %d: rows %v want %v", trial, got, rows)
		}
	}
}

func TestRecorderMatchesHashMatrix(t *testing.T) {
	// One recorder reused across iterations, as the collector reuses
	// it: after each Reset its hash and rows cover that iteration only,
	// whether it is longer or shorter than the one before.
	const seed = 3
	t.Logf("rng seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	r := NewRecorder()
	for trial := 0; trial < 50; trial++ {
		r.Reset()
		var rows [][]uint64
		for i := rng.Intn(40); i > 0; i-- {
			v := uint64(rng.Intn(4))
			rows = append(rows, []uint64{v})
			r.AddValue(v)
		}
		if r.Hash() != HashMatrix(rows) {
			t.Fatalf("trial %d: hash of a reused recorder mismatches", trial)
		}
		if got := r.Rows(); len(got) != len(rows) || (len(rows) > 0 && !reflect.DeepEqual(got, rows)) {
			t.Fatalf("trial %d: rows %v want %v", trial, got, rows)
		}
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.AddValue(1)
	r.Reset()
	if len(r.Rows()) != 0 {
		t.Error("reset did not clear rows")
	}
	r.AddValue(2)
	if r.Hash() != HashMatrix([][]uint64{{2}}) {
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

func TestRecorderHashesIdempotent(t *testing.T) {
	r := NewRecorder()
	r.AddValue(1)
	r.AddValue(3)
	h1 := r.Hash()
	if h2 := r.Hash(); h1 != h2 {
		t.Error("Hash must be callable repeatedly without changing")
	}
	r.AddValue(4)
	if r.Hash() == h1 {
		t.Error("hash did not change after more rows")
	}
}

func TestRecorderRowsSurviveArenaGrowth(t *testing.T) {
	// Row views are rebuilt from the value buffer, so its reallocation
	// while recording must not corrupt earlier rows.
	r := NewRecorder()
	want := make([][]uint64, 0, 200)
	for i := 0; i < 200; i++ {
		r.AddValue(uint64(i * 3))
		want = append(want, []uint64{uint64(i * 3)})
	}
	got := r.Rows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v want %v", got, want)
	}
	if HashMatrix(got) != r.Hash() {
		t.Error("hash mismatch after growth")
	}
}

func TestObserveFrom(t *testing.T) {
	s := NewStore()
	r := NewRecorder()
	r.AddValue(5)
	r.AddValue(6)
	h := r.Hash()
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
	// The stored representative must not alias the recorder's buffer.
	r.Reset()
	r.AddValue(99)
	r.AddValue(99)
	if want := [][]uint64{{5}, {6}}; !reflect.DeepEqual(e.Rep, want) {
		t.Errorf("representative %v, want %v: it aliases the recorder", e.Rep, want)
	}
}
