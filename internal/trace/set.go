package trace

// u64set is a small open-addressing hash table keyed by a pair of
// uint64 words, carrying an int32 value per key, with O(1)
// generation-based clearing. One type serves the collector's three
// per-cycle lookups, none of which allocates once the table has grown
// to its working size:
//
//   - the event counts: how many times each non-zero value occurs in a
//     unit's previous row, keyed (v, 0); a value whose count falls to 0
//     leaves the table;
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

// slot returns the index of key (a, b)'s slot and whether this call
// added the key; an added key's value is 0.
func (s *u64set) slot(a, b uint64) (uint64, bool) {
	// Keep load factor under 1/2 so probe chains stay short.
	if len(s.slots) == 0 || 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(a, b); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.gen != s.cur {
			*e = setSlot{a: a, b: b, gen: s.cur}
			s.n++
			return i, true
		}
		if e.a == a && e.b == b {
			return i, false
		}
	}
}

// insert adds key (a, b) with value v unless the key is already present.
// It returns the key's value and whether this call added it.
func (s *u64set) insert(a, b uint64, v int32) (int32, bool) {
	i, added := s.slot(a, b)
	e := &s.slots[i]
	if added {
		e.val = v
	}
	return e.val, added
}

// add adds d to the value of key (v, 0), inserting the key with value d
// when it is absent and removing it when its value falls to 0.
func (s *u64set) add(v uint64, d int32) {
	i, _ := s.slot(v, 0)
	if s.slots[i].val += d; s.slots[i].val == 0 {
		s.remove(i)
	}
}

// remove empties the live slot i. Linear probing stops at the first
// empty slot, so each later entry of the probe run moves back into the
// hole when its home slot does not lie between the hole and itself.
func (s *u64set) remove(i uint64) {
	mask := uint64(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j].gen == s.cur; j = (j + 1) & mask {
		if h := s.home(s.slots[j].a, s.slots[j].b); (j-h)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i].gen = 0 // never current: clear and grow keep cur >= 1
	s.n--
}

// get returns the value of key (v, 0), or 0 when the key is absent.
func (s *u64set) get(v uint64) int32 {
	if s.n == 0 {
		return 0
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(v, 0); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.gen != s.cur {
			return 0
		}
		if e.a == v && e.b == 0 {
			return e.val
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
