// Package snapshot implements microarchitectural iteration snapshots
// (Section V-B of the paper): 2D matrices of per-cycle unit state, their
// 64-bit hashing, the timing-removal transform used in the fast-bypass
// case study, and a store that deduplicates matrices by hash while
// counting occurrences per secret class.
package snapshot

import (
	"microsampler/internal/siphash"
)

// HashMatrix hashes a snapshot matrix. Row boundaries are included so
// that matrices with the same flattened contents but different shapes
// hash differently. It absorbs one word at a time rather than through
// the Recorder's row kernel, so it stays an independent reference for
// the recorder's digests.
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

// Consolidate removes consecutive duplicate rows, discarding the timing
// information of the snapshot (Section VII-B2: "consolidating
// consecutive occurrences of the same values to a single value"). The
// result shares no storage with the input.
func Consolidate(rows [][]uint64) [][]uint64 {
	out := make([][]uint64, 0, len(rows))
	for i, row := range rows {
		if i > 0 && rowsEqual(row, rows[i-1]) {
			continue
		}
		cp := make([]uint64, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	return out
}

func rowsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Recorder accumulates the rows of one iteration snapshot for a single
// microarchitectural unit. It hashes incrementally (both the full and
// the timing-free variant) and keeps the raw row values so that a newly
// seen snapshot can be retained as the representative matrix.
//
// Rows are stored in a flat arena (one values slice plus per-row end
// offsets) that is reused across Reset calls, so the per-cycle AddRow /
// AddValue path performs no steady-state allocations once the arena has
// grown to cover the longest iteration.
type Recorder struct {
	vals     []uint64 // flat arena of all row values, in row order
	ends     []int    // ends[i] is the end offset of row i in vals
	full     siphash.Hasher
	noTiming siphash.Hasher
	// Last distinct row, as offsets into vals (offsets stay valid when
	// the arena reallocates, unlike subslice headers).
	lastStart, lastEnd int
	hasLast            bool
	rows               [][]uint64 // scratch rebuilt by Rows, reused
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.Reset()
	return r
}

// Reset clears the recorder for the next iteration, retaining the
// arena's capacity.
func (r *Recorder) Reset() {
	r.vals = r.vals[:0]
	r.ends = r.ends[:0]
	r.rows = r.rows[:0]
	r.full.Reset(siphash.DefaultKey)
	r.noTiming.Reset(siphash.DefaultKey)
	r.lastStart, r.lastEnd = 0, 0
	r.hasLast = false
}

// AddRow appends one cycle's state row. The row is copied into the
// arena; the caller may reuse its slice. It reports whether the row
// differs from the previous one (always true for the first row after a
// Reset), so a caller deriving events from consecutive rows can skip an
// unchanged row without keeping a copy of its own.
func (r *Recorder) AddRow(row []uint64) (changed bool) {
	start := len(r.vals)
	r.vals = append(r.vals, row...)
	return r.commitRow(start)
}

// AddValue appends a single-value row. It is equivalent to
// AddRow([]uint64{v}) — same hash, same stored row — without
// materialising the one-element slice, which lets event streams feed the
// recorder value by value off the hot path's scratch buffers.
func (r *Recorder) AddValue(v uint64) {
	start := len(r.vals)
	r.vals = append(r.vals, v)
	r.commitRow(start)
}

// commitRow seals vals[start:] as one row: records its end offset and
// streams it into the full hash, and into the timing-free hash when it
// differs from the previous distinct row, which it reports. The last
// distinct row always has the contents of the previous row, since every
// row after it was equal to it.
func (r *Recorder) commitRow(start int) bool {
	end := len(r.vals)
	r.ends = append(r.ends, end)
	row := r.vals[start:end]
	r.full.WriteRow(row)
	if r.hasLast && rowsEqual(row, r.vals[r.lastStart:r.lastEnd]) {
		return false
	}
	r.noTiming.WriteRow(row)
	r.lastStart, r.lastEnd = start, end
	r.hasLast = true
	return true
}

// Cycles returns the number of rows recorded so far.
func (r *Recorder) Cycles() int { return len(r.ends) }

// Hashes returns the full and timing-free hashes of the rows recorded
// so far. It does not disturb the recorder.
func (r *Recorder) Hashes() (full, noTiming uint64) {
	return r.full.Sum64(), r.noTiming.Sum64()
}

// Rows materialises the recorded rows as arena-backed subslices. The
// result is only valid until the next Reset or Add; callers that keep
// it must copy (Store does).
func (r *Recorder) Rows() [][]uint64 {
	rows := r.rows[:0]
	start := 0
	for _, end := range r.ends {
		rows = append(rows, r.vals[start:end:end])
		start = end
	}
	r.rows = rows
	return rows
}

// Finish returns the full and timing-free hashes plus the recorded rows.
// The returned rows alias the recorder's arena and are only valid until
// the next Reset; callers that keep them must copy (Store does).
func (r *Recorder) Finish() (full, noTiming uint64, rows [][]uint64) {
	full, noTiming = r.Hashes()
	return full, noTiming, r.Rows()
}

// Entry is one unique snapshot with its per-class observation counts
// and a retained representative matrix.
type Entry struct {
	Hash         uint64
	CountByClass map[uint64]int
	Rep          [][]uint64 // representative matrix (first occurrence)
	Cycles       int
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
			Cycles:       len(rows),
		}
		s.byHash[hash] = e
		s.order = append(s.order, hash)
	}
	e.CountByClass[class]++
}

// ObserveFrom folds one snapshot occurrence straight from a recorder,
// materialising its rows only when the hash is new, so the seen-hash
// fast path is allocation-free.
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
				Cycles:       oe.Cycles,
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
