package trace

import (
	"slices"
	"testing"

	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
)

// rowsFrom decodes fuzz bytes into a snapshot matrix shaped like a
// unit's rows: each op byte repeats the previous row, shifts it (drops
// values from the head and appends at the tail, as a queue retires and
// dispatches), rewrites one cell in place, or starts a fresh row. Values
// come from a small alphabet with zeros, so rows repeat and overlap.
func rowsFrom(data []byte) [][]uint64 {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		if b&0x80 != 0 {
			return uint64(b) << 40 // a rare large value
		}
		return uint64(b % 6)
	}
	var rows [][]uint64
	var prev []uint64
	for len(data) > 0 && len(rows) < 64 {
		op := data[0]
		data = data[1:]
		row := slices.Clone(prev)
		switch op % 4 {
		case 0: // repeat
		case 1: // shift
			row = row[min(int(op>>2)%4, len(row)):]
			for range int(op>>4) % 4 {
				row = append(row, next())
			}
		case 2: // rewrite one cell
			if len(row) > 0 {
				row[int(op>>2)%len(row)] = next()
			}
		case 3: // fresh row
			row = row[:0]
			for range int(op>>2) % 6 {
				row = append(row, next())
			}
		}
		rows = append(rows, row)
		prev = row
	}
	return rows
}

// FuzzHashTimed asserts the timed snapshot encoding's invariants on
// arbitrary row sequences: the collector's streamed digest equals the
// snapshot.HashTimed reference, in two consecutive iterations, the
// reference is deterministic, and a one-cell, one-row-length or
// one-repeat mutation of the matrix changes the hash.
func FuzzHashTimed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x3f, 1, 2, 3, 4, 5, 0, 0x15, 7, 0x11, 3, 0, 2, 9})
	f.Add([]byte{0x0f, 0, 0, 0, 0, 0, 0x06, 1, 0x01, 0x31, 1, 1, 1, 0x03})
	f.Add([]byte{0x07, 0x81, 0x82, 0x0d, 0x81, 0x82, 0x83, 0, 0x21, 0x84, 0x83})
	p := benchProbe(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := rowsFrom(data)
		h := snapshot.HashTimed(m)
		if h != snapshot.HashTimed(m) {
			t.Fatal("HashTimed not deterministic")
		}

		var cur []uint64
		col := NewCollector(WithUnits(SQADDR))
		st := &col.states[SQADDR]
		st.spec = &unitSpec{name: "scripted", kind: provNone,
			row: func(_ *sim.Probe, dst []uint64) []uint64 { return append(dst, cur...) },
			gen: cycleCounter()}
		col.OnMark(0, isa.MarkROIBegin, 0)
		for class := uint64(0); class < 2; class++ {
			col.OnMark(0, isa.MarkIterBegin, class)
			for _, cur = range m {
				col.OnCycle(p)
			}
			col.OnMark(int64(len(m)), isa.MarkIterEnd, 0)
		}
		for i, got := range st.iterHashes {
			if got != h {
				t.Fatalf("iteration %d: streamed hash %#x, HashTimed %#x of %v", i, got, h, m)
			}
		}

		if len(m) == 0 {
			return
		}
		mutated := func(what string, mm [][]uint64) {
			t.Helper()
			if snapshot.HashTimed(mm) == h {
				t.Errorf("%s did not change the hash of %v", what, m)
			}
		}
		// Mutations go through copies: rows of m may share backing arrays.
		at := int(data[0]) % len(m)
		if row := m[at]; len(row) > 0 {
			mm := slices.Clone(m)
			mm[at] = slices.Clone(row)
			mm[at][len(row)/2] ^= 1
			mutated("flipping a cell", mm)

			mm[at] = row[:len(row)-1]
			mutated("dropping a row's last value", mm)
		}
		mm := slices.Clone(m)
		mm[at] = append(slices.Clone(m[at]), 7)
		mutated("appending a value to a row", mm)

		mutated("repeating a row once more", slices.Insert(slices.Clone(m), at, m[at]))
	})
}
