package trace

// u64set is a small open-addressing hash table keyed by a pair of
// uint64 words, carrying an int32 value per key, with O(1)
// generation-based clearing. One type serves the collector's three
// per-cycle lookups, none of which allocates once the table has grown
// to its working size:
//
//   - the event set: the non-zero values of the previous cycle's row,
//     keyed (v, 0), cleared every cycle the row changes;
//   - a unit's provenance index: key (v, 0) → index into its dense
//     stream slice;
//   - the attribution pair set: each (address, PC) of a store or load
//     seen in the region of interest.
type u64set struct {
	slots []setSlot // power-of-two sized
	cur   uint32    // current generation: a slot is live iff gen == cur
	n     int       // live entries
}

type setSlot struct {
	a, b uint64
	val  int32
	gen  uint32
}

// mix is a splitmix64-style finaliser spreading entropy across all bits
// so low-bit-masked probing behaves well on addresses and PCs (which
// share low-order structure).
func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// home is the first probe slot of key (a, b). A second word of 0 hashes
// like the first word alone.
func (s *u64set) home(a, b uint64) uint64 {
	return mix(a^b*0x9e3779b97f4a7c15) & uint64(len(s.slots)-1)
}

// clear empties the set in O(1) by advancing the generation.
func (s *u64set) clear() {
	s.n = 0
	s.cur++
	if s.cur == 0 { // generation wrapped: stamps are ambiguous, scrub them
		for i := range s.slots {
			s.slots[i].gen = 0
		}
		s.cur = 1
	}
}

// grow doubles the table (or creates it) and rehashes live entries.
func (s *u64set) grow() {
	old, oldCur := s.slots, s.cur
	size := 64
	if len(old) > 0 {
		size = len(old) * 2
	}
	s.slots = make([]setSlot, size)
	s.cur = 1
	s.n = 0
	for _, e := range old {
		if e.gen == oldCur {
			s.insert(e.a, e.b, e.val)
		}
	}
}

// insert adds key (a, b) with value v unless the key is already present.
// It returns the key's value and whether this call added it.
func (s *u64set) insert(a, b uint64, v int32) (int32, bool) {
	// Keep load factor under 1/2 so probe chains stay short.
	if len(s.slots) == 0 || 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(a, b); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.gen != s.cur {
			*e = setSlot{a: a, b: b, val: v, gen: s.cur}
			s.n++
			return v, true
		}
		if e.a == a && e.b == b {
			return e.val, false
		}
	}
}

// contains reports whether key (v, 0) is present.
func (s *u64set) contains(v uint64) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(v, 0); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.gen != s.cur {
			return false
		}
		if e.a == v && e.b == 0 {
			return true
		}
	}
}

// each calls fn for every live entry, in slot order.
func (s *u64set) each(fn func(a, b uint64, v int32)) {
	if s.n == 0 {
		return
	}
	for _, e := range s.slots {
		if e.gen == s.cur {
			fn(e.a, e.b, e.val)
		}
	}
}
