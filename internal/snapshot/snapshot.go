// Package snapshot implements microarchitectural iteration snapshots
// (Section V-B of the paper): the 64-bit hashes of a 2D matrix of
// per-cycle unit state, a recorder for an iteration's event log, and a
// store that deduplicates snapshots by hash while counting occurrences
// per secret class.
package snapshot

import (
	"slices"

	"microsampler/internal/siphash"
)

// HashMatrix hashes a snapshot matrix. Row boundaries are included so
// that matrices with the same flattened contents but different shapes
// hash differently. It absorbs one word at a time rather than through
// the row kernel, so it stays an independent reference for the digests
// the Recorder and the trace collector compute.
func HashMatrix(rows [][]uint64) uint64 {
	h := siphash.New(siphash.DefaultKey)
	for _, row := range rows {
		h.WriteUint64(uint64(len(row)) | 1<<63)
		for _, v := range row {
			h.WriteUint64(v)
		}
	}
	return h.Sum64()
}

// HashTimed hashes a snapshot matrix in the timed encoding the trace
// collector streams (version 2 of the timed snapshot hash). Each row is
// absorbed only as its delta from the previous distinct row prev, which
// starts empty: a row equal to prev adds one to a repeat count c, and a
// changed row absorbs c, then the smallest k such that prev[k:] is a
// prefix of the row, then the row's suffix after that prefix as a
// length-tagged row, as HashMatrix absorbs a row. The final repeat
// count closes the stream, which thus reads c0, (k1, S1), c1, …, cN.
//
// The stream decodes back to the matrix, and k is a function of the two
// rows, so two matrices hash equal exactly when HashMatrix hashes them
// equal (up to collisions): the encoding partitions snapshots as
// HashMatrix does, with different values. It is written from this
// definition, one word at a time, as the independent reference for the
// collector's streamed digests.
func HashTimed(rows [][]uint64) uint64 {
	h := siphash.New(siphash.DefaultKey)
	var prev []uint64
	var repeat uint64
	for _, row := range rows {
		if slices.Equal(row, prev) {
			repeat++
			continue
		}
		k := 0
		for k < len(prev) && !isPrefix(prev[k:], row) {
			k++
		}
		suffix := row[len(prev)-k:]
		h.WriteUint64(repeat)
		h.WriteUint64(uint64(k))
		h.WriteUint64(uint64(len(suffix)) | 1<<63)
		for _, v := range suffix {
			h.WriteUint64(v)
		}
		prev, repeat = row, 0
	}
	h.WriteUint64(repeat)
	return h.Sum64()
}

// isPrefix reports whether p is a prefix of row.
func isPrefix(p, row []uint64) bool {
	return len(p) <= len(row) && slices.Equal(p, row[:len(p)])
}

// Recorder accumulates the event log of one iteration for a single
// microarchitectural unit: a sequence of single-value rows, hashed
// incrementally, with the values kept so that a newly seen snapshot can
// be retained as a store entry's representative.
//
// The values live in one slice reused across Reset calls, so the
// per-cycle AddValue path performs no steady-state allocations once it
// has grown to cover the longest iteration.
type Recorder struct {
	vals []uint64 // one value per row, in row order
	h    siphash.Hasher
	rows [][]uint64 // scratch rebuilt by Rows, reused
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.Reset()
	return r
}

// Reset clears the recorder for the next iteration, retaining the
// capacity of its buffers.
func (r *Recorder) Reset() {
	r.vals = r.vals[:0]
	r.rows = r.rows[:0]
	r.h.Reset(siphash.DefaultKey)
}

// AddValue appends a single-value row: it hashes exactly as HashMatrix
// hashes the row []uint64{v}.
func (r *Recorder) AddValue(v uint64) {
	r.vals = append(r.vals, v)
	r.h.WriteRow(r.vals[len(r.vals)-1:])
}

// Hash returns the hash of the rows recorded so far. It does not
// disturb the recorder.
func (r *Recorder) Hash() uint64 { return r.h.Sum64() }

// Rows materialises the recorded rows as subslices of the recorder's
// buffer. The result is only valid until the next Reset or AddValue;
// callers that keep it must copy (Store does).
func (r *Recorder) Rows() [][]uint64 {
	rows := r.rows[:0]
	for i := range r.vals {
		rows = append(rows, r.vals[i:i+1:i+1])
	}
	r.rows = rows
	return rows
}

// Entry is one unique snapshot with its per-class observation counts
// and a retained representative.
type Entry struct {
	Hash         uint64
	CountByClass map[uint64]int
	// Rep is the representative of the entry's first occurrence: the
	// matrix passed to Observe. The trace collector passes the
	// iteration's event sequence, one value per row, for both its timed
	// and its timing-free store.
	Rep [][]uint64
}

// Total returns the entry's total observation count.
func (e *Entry) Total() int {
	n := 0
	for _, c := range e.CountByClass {
		n += c
	}
	return n
}

// Store deduplicates iteration snapshots of one unit by hash.
type Store struct {
	byHash map[uint64]*Entry
	order  []uint64 // insertion order for deterministic iteration
}

// NewStore returns an empty Store.
func NewStore() *Store {
	return &Store{byHash: make(map[uint64]*Entry)}
}

// Observe records one snapshot occurrence. The rows are copied only when
// the hash has not been seen before.
func (s *Store) Observe(class, hash uint64, rows [][]uint64) {
	e := s.byHash[hash]
	if e == nil {
		// One backing array holds every row; the full slice expressions
		// cap each row at its length, so appending to one never
		// overwrites the next.
		total := 0
		for _, row := range rows {
			total += len(row)
		}
		flat := make([]uint64, total)
		rep := make([][]uint64, len(rows))
		a := 0
		for i, row := range rows {
			b := a + copy(flat[a:], row)
			rep[i] = flat[a:b:b]
			a = b
		}
		e = &Entry{
			Hash:         hash,
			CountByClass: make(map[uint64]int, 2),
			Rep:          rep,
		}
		s.byHash[hash] = e
		s.order = append(s.order, hash)
	}
	e.CountByClass[class]++
}

// ObserveFrom folds one snapshot occurrence under hash, taking the
// recorder's rows as the representative when the hash is new. The
// seen-hash fast path is allocation-free.
func (s *Store) ObserveFrom(class, hash uint64, r *Recorder) {
	if e := s.byHash[hash]; e != nil {
		e.CountByClass[class]++
		return
	}
	s.Observe(class, hash, r.Rows())
}

// Merge folds another store's observations into s. Representative
// matrices of hashes new to s are shared, not copied; the source store
// must not be mutated afterwards.
func (s *Store) Merge(o *Store) {
	for _, h := range o.order {
		oe := o.byHash[h]
		e := s.byHash[h]
		if e == nil {
			e = &Entry{
				Hash:         oe.Hash,
				CountByClass: make(map[uint64]int, len(oe.CountByClass)),
				Rep:          oe.Rep,
			}
			s.byHash[h] = e
			s.order = append(s.order, h)
		}
		for class, n := range oe.CountByClass {
			e.CountByClass[class] += n
		}
	}
}

// Entries returns the unique snapshots in first-seen order.
func (s *Store) Entries() []*Entry {
	out := make([]*Entry, 0, len(s.order))
	for _, h := range s.order {
		out = append(out, s.byHash[h])
	}
	return out
}

// Unique returns the number of distinct snapshots.
func (s *Store) Unique() int { return len(s.byHash) }

// ModalByClass returns, per class, the most frequently observed entry
// (ties broken by first-seen order).
func (s *Store) ModalByClass() map[uint64]*Entry {
	out := make(map[uint64]*Entry)
	best := make(map[uint64]int)
	for _, h := range s.order {
		e := s.byHash[h]
		for class, n := range e.CountByClass {
			if n > best[class] {
				best[class] = n
				out[class] = e
			}
		}
	}
	return out
}
