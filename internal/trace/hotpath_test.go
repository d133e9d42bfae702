package trace

import (
	"testing"

	"microsampler/internal/isa"
)

// TestOnCycleSteadyStateZeroAlloc pins down the central property of the
// hot-path rewrite: once warm, sampling a cycle allocates nothing. The
// measured iteration is begun but never ended, so the measurement
// covers exactly the per-cycle machinery (row scratch, event diff,
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
	if _, added := s.insert(42, 0, 1); !added {
		t.Error("empty set holds 42")
	}
	s.clear()
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
	// Values survive the growths.
	for v := uint64(1); v <= 1000; v++ {
		if got, added := s.insert(v, 0, -1); added || got != int32(v) {
			t.Fatalf("insert(%d) after growth = %d, %v want %d, false", v, got, added, v)
		}
	}
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
	s.each(func(a, b uint64, _ int32) { t.Fatalf("each visited (%d, %d) after clear", a, b) })
	// Reuse after clear: every old key is absent again.
	for v := uint64(1); v <= 1000; v++ {
		if got, added := s.insert(v, 0, -int32(v)); !added || got != -int32(v) {
			t.Fatalf("insert(%d) after clear = %d, %v want %d, true", v, got, added, -int32(v))
		}
	}
	if s.n != 1000 {
		t.Errorf("n = %d after reinsert want 1000", s.n)
	}
}

func TestU64SetPairs(t *testing.T) {
	var s u64set
	s.insert(1, 2, 1)
	for _, k := range [][2]uint64{{2, 1}, {1, 0}, {1, 3}, {0, 2}} {
		if _, added := s.insert(k[0], k[1], 2); !added {
			t.Errorf("(%d, %d) collides with (1, 2)", k[0], k[1])
		}
	}
	if got, added := s.insert(1, 2, 3); added || got != 1 {
		t.Errorf("(1, 2) reinsert = %d, %v want 1, false", got, added)
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
	if _, added := s.insert(5, 0, 2); !added {
		t.Error("stale entry visible after generation wrap")
	}
	s.insert(9, 0, 1)
	if got, added := s.insert(9, 0, 3); added || got != 1 {
		t.Error("insert after generation wrap lost")
	}
}
