package snapshot

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// matrixFrom decodes fuzz bytes into a small non-empty snapshot matrix:
// the first bytes pick the shape, the rest fill cells little-endian.
func matrixFrom(data []byte) [][]uint64 {
	rows := 1
	cols := 1
	if len(data) > 0 {
		rows = 1 + int(data[0])%8
		data = data[1:]
	}
	if len(data) > 0 {
		cols = 1 + int(data[0])%6
		data = data[1:]
	}
	m := make([][]uint64, rows)
	for i := range m {
		m[i] = make([]uint64, cols)
		for j := range m[i] {
			var cell [8]byte
			n := copy(cell[:], data)
			data = data[n:]
			m[i][j] = binary.LittleEndian.Uint64(cell[:])
		}
	}
	return m
}

// FuzzHashMatrix asserts the snapshot hashing invariants on arbitrary
// matrices: determinism, agreement between the one-shot hash and the
// Recorder's incremental one over the matrix's values as one-value
// rows, and sensitivity — any single-cell mutation and any row-boundary
// change must change the hash.
func FuzzHashMatrix(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(5))
	f.Add([]byte{7, 5, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(999))
	f.Add([]byte{1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(63))
	f.Fuzz(func(t *testing.T, data []byte, mut uint16) {
		m := matrixFrom(data)
		h := HashMatrix(m)
		if h != HashMatrix(m) {
			t.Fatal("HashMatrix not deterministic")
		}

		// The recorder's event log must hash like the matrix of its
		// one-value rows, and hand those rows back.
		r := NewRecorder()
		var events [][]uint64
		for _, row := range m {
			for _, v := range row {
				r.AddValue(v)
				events = append(events, []uint64{v})
			}
		}
		if got, want := r.Hash(), HashMatrix(events); got != want {
			t.Errorf("Recorder hash %#x != HashMatrix of one-value rows %#x", got, want)
		}
		if rows := r.Rows(); !reflect.DeepEqual(rows, events) {
			t.Errorf("Recorder rows %v, want %v", rows, events)
		}

		// Single-cell mutation sensitivity: flip one bit of one cell.
		ri := int(mut) % len(m)
		ci := int(mut>>4) % len(m[ri])
		bit := uint(mut>>8) % 64
		m[ri][ci] ^= 1 << bit
		if HashMatrix(m) == h {
			t.Errorf("flipping bit %d of cell (%d,%d) did not change the hash", bit, ri, ci)
		}
		m[ri][ci] ^= 1 << bit

		// Row-boundary sensitivity: merging two adjacent rows keeps the
		// flattened contents but must still change the hash.
		if len(m) >= 2 {
			merged := make([][]uint64, 0, len(m)-1)
			joined := append(append([]uint64{}, m[0]...), m[1]...)
			merged = append(merged, joined)
			merged = append(merged, m[2:]...)
			if HashMatrix(merged) == h {
				t.Error("merging row boundary did not change the hash")
			}
		}
	})
}

// FuzzStoreObserve asserts the deduplicating store's bookkeeping under
// arbitrary observation sequences: per-class counts sum to the number
// of observations, entries stay unique by hash, and Merge is equivalent
// to observing everything in one store.
func FuzzStoreObserve(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		one := NewStore()
		a, b := NewStore(), NewStore()
		obs := 0
		for i := 0; i+1 < len(data); i += 2 {
			class := uint64(data[i]) % 3
			hash := uint64(data[i+1]) % 8 // force collisions
			rows := [][]uint64{{hash}}
			one.Observe(class, hash, rows)
			if i%4 == 0 {
				a.Observe(class, hash, rows)
			} else {
				b.Observe(class, hash, rows)
			}
			obs++
		}
		total := 0
		seen := map[uint64]bool{}
		for _, e := range one.Entries() {
			if seen[e.Hash] {
				t.Fatalf("hash %#x appears twice in Entries", e.Hash)
			}
			seen[e.Hash] = true
			total += e.Total()
		}
		if total != obs {
			t.Errorf("store counts %d observations, want %d", total, obs)
		}
		a.Merge(b)
		if a.Unique() != one.Unique() {
			t.Errorf("merged store has %d unique, combined run has %d", a.Unique(), one.Unique())
		}
		for _, e := range one.Entries() {
			var me *Entry
			for _, c := range a.Entries() {
				if c.Hash == e.Hash {
					me = c
					break
				}
			}
			if me == nil {
				t.Fatalf("hash %#x missing after merge", e.Hash)
			}
			for class, n := range e.CountByClass {
				if me.CountByClass[class] != n {
					t.Errorf("hash %#x class %d: merged count %d, want %d",
						e.Hash, class, me.CountByClass[class], n)
				}
			}
		}
	})
}
