package trace

import (
	"math/rand/v2"
	"testing"

	"microsampler/internal/isa"
)

// TestOnCycleSteadyStateZeroAlloc pins down the central property of the
// hot-path rewrite: once warm, sampling a cycle allocates nothing. The
// measured iteration is begun but never ended, so the measurement
// covers exactly the per-cycle machinery (row scratch, event counts,
// recorders) and the IterBegin reset, and not the per-kept-iteration
// bookkeeping.
func TestOnCycleSteadyStateZeroAlloc(t *testing.T) {
	p := benchProbe(t)
	col := NewCollector()
	col.OnMark(0, isa.MarkROIBegin, 0)
	iter := func(class uint64) {
		col.OnMark(0, isa.MarkIterBegin, class)
		for c := 0; c < 64; c++ {
			col.OnCycle(p)
		}
	}
	for i := 0; i < 16; i++ { // warm scratch buffers and hash tables
		iter(uint64(i & 1))
	}
	allocs := testing.AllocsPerRun(100, func() { iter(1) })
	if allocs != 0 {
		t.Errorf("steady-state iteration allocated %v times, want 0", allocs)
	}
}

func TestU64Set(t *testing.T) {
	var s u64set
	if s.get(42) != 0 {
		t.Error("empty set holds 42")
	}
	// Insert enough values to force several growths.
	for v := uint64(1); v <= 1000; v++ {
		if _, added := s.insert(v, 0, int32(v)); !added {
			t.Fatalf("insert(%d) reported present", v)
		}
		if got, added := s.insert(v, 0, -1); added || got != int32(v) {
			t.Fatalf("duplicate insert(%d) = %d, %v want %d, false", v, got, added, v)
		}
	}
	if s.n != 1000 {
		t.Errorf("n = %d want 1000", s.n)
	}
	for v := uint64(1); v <= 1000; v++ {
		if got := s.get(v); got != int32(v) {
			t.Fatalf("get(%d) = %d after insert", v, got)
		}
	}
	if s.get(1001) != 0 {
		t.Error("get(1001) non-zero on values 1..1000")
	}
	// Values survive the growths.
	sum := 0
	s.each(func(a, b uint64, v int32) {
		if b != 0 || uint64(v) != a {
			t.Fatalf("entry (%d, %d) = %d", a, b, v)
		}
		sum++
	})
	if sum != 1000 {
		t.Errorf("each visited %d entries want 1000", sum)
	}
	s.clear()
	if s.n != 0 {
		t.Errorf("n = %d after clear", s.n)
	}
	for v := uint64(1); v <= 1000; v++ {
		if s.get(v) != 0 {
			t.Fatalf("get(%d) non-zero after clear", v)
		}
	}
	s.each(func(a, b uint64, _ int32) { t.Fatalf("each visited (%d, %d) after clear", a, b) })
	// Reuse after clear.
	s.insert(7, 0, 1)
	if s.get(7) != 1 || s.get(8) != 0 {
		t.Error("set broken after clear+insert")
	}
}

func TestU64SetPairs(t *testing.T) {
	var s u64set
	s.insert(1, 2, 1)
	for _, k := range [][2]uint64{{2, 1}, {1, 0}, {1, 3}, {0, 2}} {
		if _, added := s.insert(k[0], k[1], 1); !added {
			t.Errorf("(%d, %d) collides with (1, 2)", k[0], k[1])
		}
	}
	if _, added := s.insert(1, 2, 1); added {
		t.Error("(1, 2) inserted twice")
	}
	if s.get(1) != 1 || s.get(2) != 0 {
		t.Error("get(v) must see exactly the (v, 0) keys")
	}
	if s.n != 5 {
		t.Errorf("n = %d want 5", s.n)
	}
}

func TestU64SetGenerationWrap(t *testing.T) {
	var s u64set
	s.insert(5, 0, 1)
	s.cur = ^uint32(0) // force the next clear to wrap the generation
	s.clear()
	if s.get(5) != 0 {
		t.Error("stale entry visible after generation wrap")
	}
	s.insert(9, 0, 1)
	if s.get(9) != 1 {
		t.Error("insert after generation wrap lost")
	}
}

// TestU64SetCounts drives the event counts against a map: add inserts
// an absent key with its delta, updates a present one in place and
// removes a key whose count falls to 0, and every other key stays
// reachable through the probe runs that removal shifts.
func TestU64SetCounts(t *testing.T) {
	var s u64set
	want := map[uint64]int32{}
	rng := rand.New(rand.NewPCG(1, 2))
	for step := 0; step < 20000; step++ {
		// Few distinct keys, many collisions: probe runs form and break.
		v := 1 + rng.Uint64N(200)
		d := int32(1)
		if want[v] > 0 && rng.IntN(2) == 0 {
			d = -1
		}
		s.add(v, d)
		if want[v] += d; want[v] == 0 {
			delete(want, v)
		}
		if step%97 == 0 || d < 0 {
			for k := uint64(1); k <= 200; k++ {
				if got := s.get(k); got != want[k] {
					t.Fatalf("step %d: get(%d) = %d, want %d", step, k, got, want[k])
				}
			}
		}
		if s.n != len(want) {
			t.Fatalf("step %d: n = %d, want %d live keys", step, s.n, len(want))
		}
	}
}
