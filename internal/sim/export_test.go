package sim

import (
	"slices"

	"microsampler/internal/isa"
)

// WalkROB counts the ROB's non-folded and folded uops by a full walk of
// rob.q, the count robOccupancy keeps in step instead.
func (p *Probe) WalkROB() (occupied, folded int) {
	for _, h := range p.c.rob.q {
		if p.c.uops[h].folded {
			folded++
		} else {
			occupied++
		}
	}
	return occupied, folded
}

// WalkLFB appends the LFB-Data and LFB-ADDR rows built by walking every
// fill-buffer slot, not only those below lfbLive, and counts the valid
// slots at or above lfbLive.
func (p *Probe) WalkLFB(data, addrs []uint64) ([]uint64, []uint64, int) {
	d := p.c.dc
	above := 0
	for i, e := range d.lfb {
		if !e.valid {
			continue
		}
		if i >= d.lfbLive {
			above++
		}
		if e.fillAt <= p.c.cycle {
			data = append(data, e.data)
		} else {
			data = append(data, 0)
		}
		addrs = append(addrs, e.lineAddr<<d.cache.lineShift)
	}
	return data, addrs, above
}

// AppendExec appends the seqs of the executing list to list and, by a
// full ROB walk, the seqs of the uops complete can act on (doneAt set,
// not completed) to walk, both in age order.
func (p *Probe) AppendExec(list, walk []uint64) ([]uint64, []uint64) {
	c := p.c
	for _, r := range c.exec {
		list = append(list, r.seq)
	}
	for _, h := range c.rob.q {
		if u := &c.uops[h]; !u.completed && u.doneAt != never {
			walk = append(walk, u.seq)
		}
	}
	return list, walk
}

// AppendReady appends the seqs of the ready list's uops that may issue
// this cycle to list and, by a full scan of the uops waiting to issue
// (in the ROB, neither issued nor completed), the seqs of those whose
// sources are readable this cycle to scan, both in age order. It also
// counts the ready list's uops whose ready cycle is still ahead.
func (p *Probe) AppendReady(list, scan []uint64) ([]uint64, []uint64, int) {
	c := p.c
	ahead := 0
	for _, r := range c.ready {
		if c.uops[r.h].readyAt > c.cycle {
			ahead++
			continue
		}
		list = append(list, r.seq)
	}
	for _, h := range c.rob.q {
		if u := &c.uops[h]; !u.issued && !u.completed && c.srcReady(u.ps1) && c.srcReady(u.ps2) {
			scan = append(scan, u.seq)
		}
	}
	return list, scan, ahead
}

// AppendLoads appends the seqs of the load list to list and, by a full
// LDQ scan, the seqs of the loads with their address ready that have
// not accessed memory to scan, both in age order.
func (p *Probe) AppendLoads(list, scan []uint64) ([]uint64, []uint64) {
	c := p.c
	for _, r := range c.loads {
		list = append(list, r.seq)
	}
	for _, r := range c.ldq.q {
		if u := &c.uops[r.h]; u.addrReady && !u.memIssued {
			scan = append(scan, u.seq)
		}
	}
	return list, scan
}

// HeldLoads counts the loads on the load list that stillBlocked keeps
// from a store-conflict scan, and appends to wrong the seqs of those a
// full STQ scan would not block.
func (p *Probe) HeldLoads(wrong []uint64) (int, []uint64) {
	c := p.c
	held := 0
	for _, r := range c.loads {
		ld := &c.uops[r.h]
		if !c.stillBlocked(ld) {
			continue
		}
		held++
		if _, blocked := refOlderStoreConflict(c, ld); !blocked {
			wrong = append(wrong, ld.seq)
		}
	}
	return held, wrong
}

// InROB reports whether the uop with the given seq is in the ROB.
func (p *Probe) InROB(seq uint64) bool {
	for _, h := range p.c.rob.q {
		if p.c.uops[h].seq == seq {
			return true
		}
	}
	return false
}

// LoadConflict is one waiting load's store-conflict answer from the
// cursor-bounded scan issueMemory makes and from a full STQ scan. Fwd
// and RefFwd are the forwarding store's seq, 0 for none.
type LoadConflict struct {
	Load                uint64
	Fwd, RefFwd         uint64
	Blocked, RefBlocked bool
}

// AppendLoadConflicts appends, for every load with its address ready
// and its access not yet issued, both scans' answers, walking the LDQ
// with the STQ cursor as issueMemory does.
func (p *Probe) AppendLoadConflicts(dst []LoadConflict) []LoadConflict {
	c := p.c
	seqOf := func(u *uop) uint64 {
		if u == nil {
			return 0
		}
		return u.seq
	}
	older := 0
	for _, r := range c.ldq.q {
		ld := &c.uops[r.h]
		if !ld.addrReady || ld.memIssued {
			continue
		}
		older = c.olderStores(older, ld.seq)
		st, blocked := c.olderStoreConflict(ld, c.stq.q[:older])
		ref, refBlocked := refOlderStoreConflict(c, ld)
		dst = append(dst, LoadConflict{ld.seq, seqOf(st), seqOf(ref), blocked, refBlocked})
	}
	return dst
}

// refOlderStoreConflict is the reference for olderStoreConflict: it
// scans the whole STQ from the youngest store, skipping the stores
// younger than the load.
func refOlderStoreConflict(c *Core, ld *uop) (fwd *uop, blocked bool) {
	for i := len(c.stq.q) - 1; i >= 0; i-- {
		st := &c.uops[c.stq.q[i].h]
		if st.seq > ld.seq {
			continue
		}
		if !st.addrReady {
			return nil, true
		}
		if st.memAddr+uint64(st.memSize) <= ld.memAddr ||
			ld.memAddr+uint64(ld.memSize) <= st.memAddr {
			continue // disjoint
		}
		covers := st.memAddr <= ld.memAddr &&
			ld.memAddr+uint64(ld.memSize) <= st.memAddr+uint64(st.memSize)
		if covers && st.completed {
			return st, false
		}
		return nil, true
	}
	return nil, false
}

// Fetched returns the youngest uop at pc in the fetch buffer: its seq
// and the instruction fetch decoded for it. Fetch runs last in a cycle,
// so after Step every uop fetched in that cycle is still there.
func (m *Machine) Fetched(pc uint64) (seq uint64, inst isa.Inst, ok bool) {
	c := m.core
	for _, h := range c.fetchBuf.q {
		if u := &c.uops[h]; u.pc == pc {
			seq, inst, ok = u.seq, u.inst, true
		}
	}
	return seq, inst, ok
}

// WalkFills counts the lines outstanding in more than one slot across
// the demand, next-line and stride trackers, and the lines valid in
// more than one way of a D-cache set.
func (p *Probe) WalkFills() (twiceInFlight, twiceValid int) {
	d := p.c.dc
	var lines []uint64
	for _, t := range d.trackers {
		for _, m := range t.slots {
			if !m.valid {
				continue
			}
			if slices.Contains(lines, m.lineAddr) {
				twiceInFlight++
			}
			lines = append(lines, m.lineAddr)
		}
	}
	for _, set := range d.cache.sets {
		for i, a := range set {
			for _, b := range set[i+1:] {
				if a.valid && b.valid && a.tag == b.tag {
					twiceValid++
				}
			}
		}
	}
	return twiceInFlight, twiceValid
}
