package trace

import (
	"testing"

	"microsampler/internal/isa"
)

// TestOnCycleSteadyStateZeroAlloc pins down the central property of the
// hot-path rewrite: once warm, sampling a cycle allocates nothing. The
// huge warmup-iteration count keeps IterEnd on the discard path so the
// measurement covers exactly the per-cycle machinery (row scratch,
// event set, recorders) and not the per-kept-iteration bookkeeping.
func TestOnCycleSteadyStateZeroAlloc(t *testing.T) {
	p := benchProbe(t)
	col := NewCollector(WithWarmupIterations(1 << 30))
	col.OnMark(0, isa.MarkROIBegin, 0)
	iter := func(class uint64) {
		col.OnMark(0, isa.MarkIterBegin, class)
		for c := 0; c < 64; c++ {
			col.OnCycle(p)
		}
		col.OnMark(64, isa.MarkIterEnd, 0)
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
	if s.contains(42) {
		t.Error("empty set contains 42")
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
		if !s.contains(v) {
			t.Fatalf("missing %d after insert", v)
		}
	}
	if s.contains(1001) {
		t.Error("contains(1001) on values 1..1000")
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
		if s.contains(v) {
			t.Fatalf("contains(%d) after clear", v)
		}
	}
	s.each(func(a, b uint64, _ int32) { t.Fatalf("each visited (%d, %d) after clear", a, b) })
	// Reuse after clear.
	s.insert(7, 0, 0)
	if !s.contains(7) || s.contains(8) {
		t.Error("set broken after clear+insert")
	}
}

func TestU64SetPairs(t *testing.T) {
	var s u64set
	s.insert(1, 2, 0)
	for _, k := range [][2]uint64{{2, 1}, {1, 0}, {1, 3}, {0, 2}} {
		if _, added := s.insert(k[0], k[1], 0); !added {
			t.Errorf("(%d, %d) collides with (1, 2)", k[0], k[1])
		}
	}
	if _, added := s.insert(1, 2, 0); added {
		t.Error("(1, 2) inserted twice")
	}
	if !s.contains(1) || s.contains(2) {
		t.Error("contains(v) must see exactly the (v, 0) keys")
	}
	if s.n != 5 {
		t.Errorf("n = %d want 5", s.n)
	}
}

func TestU64SetGenerationWrap(t *testing.T) {
	var s u64set
	s.insert(5, 0, 0)
	s.cur = ^uint32(0) // force the next clear to wrap the generation
	s.clear()
	if s.contains(5) {
		t.Error("stale entry visible after generation wrap")
	}
	s.insert(9, 0, 0)
	if !s.contains(9) {
		t.Error("insert after generation wrap lost")
	}
}
