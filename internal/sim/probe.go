package sim

// Probe exposes the per-cycle microarchitectural state that MicroSampler
// tracks (Table IV of the paper). A Probe is only valid during the
// Tracer.OnCycle call that delivered it.
//
// Each Append* method appends one unit's state row for the current cycle
// to a caller-provided buffer, so a tracer that reuses its buffers
// samples without allocating. StoreQueue and LoadQueue additionally
// expose the queue slots with their address-valid bit, which the rows
// encode as a 0 address; their slices are backed by probe-owned scratch
// and valid only until the next call of the same method.
type Probe struct {
	c *Core

	// Scratch buffers backing the queue views.
	stq []LSQEntry
	ldq []LSQEntry
}

// LSQEntry is one load- or store-queue slot view.
type LSQEntry struct {
	Addr  uint64
	PC    uint64
	Valid bool // address has been computed
}

// StoreQueue returns the store-queue contents in age order, including
// committed stores that have not yet drained to the D-cache. The slice
// is valid until the next StoreQueue call.
func (p *Probe) StoreQueue() []LSQEntry {
	p.stq = p.appendLSQ(p.stq[:0], p.c.stq.q)
	return p.stq
}

// LoadQueue returns the load-queue contents in age order. The slice is
// valid until the next LoadQueue call.
func (p *Probe) LoadQueue() []LSQEntry {
	p.ldq = p.appendLSQ(p.ldq[:0], p.c.ldq.q)
	return p.ldq
}

func (p *Probe) appendLSQ(dst []LSQEntry, q []uopID) []LSQEntry {
	for _, h := range q {
		u := &p.c.uops[h]
		dst = append(dst, LSQEntry{Addr: u.memAddr, PC: u.pc, Valid: u.addrReady})
	}
	return dst
}

// AppendStoreAddrs appends the SQ-ADDR feature row: per store-queue slot
// in age order, the computed store address (0 while unresolved).
func (p *Probe) AppendStoreAddrs(dst []uint64) []uint64 { return p.appendAddrs(dst, p.c.stq.q) }

// AppendStorePCs appends the SQ-PC feature row: the program counter of
// every store-queue slot in age order.
func (p *Probe) AppendStorePCs(dst []uint64) []uint64 { return p.appendPCs(dst, p.c.stq.q) }

// AppendLoadAddrs appends the LQ-ADDR feature row: per load-queue slot
// in age order, the computed load address (0 while unresolved).
func (p *Probe) AppendLoadAddrs(dst []uint64) []uint64 { return p.appendAddrs(dst, p.c.ldq.q) }

// AppendLoadPCs appends the LQ-PC feature row: the program counter of
// every load-queue slot in age order.
func (p *Probe) AppendLoadPCs(dst []uint64) []uint64 { return p.appendPCs(dst, p.c.ldq.q) }

func (p *Probe) appendAddrs(dst []uint64, q []uopID) []uint64 {
	for _, h := range q {
		if u := &p.c.uops[h]; u.addrReady {
			dst = append(dst, u.memAddr)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (p *Probe) appendPCs(dst []uint64, q []uopID) []uint64 {
	for _, h := range q {
		dst = append(dst, p.c.uops[h].pc)
	}
	return dst
}

// AppendROBPCs appends the ROB-PC feature row: the program counters of
// the occupied (non-folded) reorder-buffer slots in age order.
func (p *Probe) AppendROBPCs(dst []uint64) []uint64 {
	for _, h := range p.c.rob.q {
		if u := &p.c.uops[h]; !u.folded {
			dst = append(dst, u.pc)
		}
	}
	return dst
}

// ROBOccupancy returns the number of occupied (non-folded) ROB slots.
func (p *Probe) ROBOccupancy() int { return p.c.robOccupancy() }

// robOccupancy counts the occupied (non-folded) reorder-buffer slots.
func (c *Core) robOccupancy() int {
	n := 0
	for _, h := range c.rob.q {
		if !c.uops[h].folded {
			n++
		}
	}
	return n
}

// AppendLFBData appends the LFB-Data feature row: per valid fill-buffer
// entry, the first doubleword of the line (0 while the fill is in
// flight).
func (p *Probe) AppendLFBData(dst []uint64) []uint64 {
	for _, e := range p.c.dc.lfb {
		if !e.valid {
			continue
		}
		if e.fillAt <= p.c.cycle {
			dst = append(dst, e.data)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// AppendLFBAddrs appends the LFB-ADDR feature row: the line base
// addresses of the valid fill-buffer entries.
func (p *Probe) AppendLFBAddrs(dst []uint64) []uint64 {
	for _, e := range p.c.dc.lfb {
		if e.valid {
			dst = append(dst, e.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	return dst
}

// appendBusyPCs appends an EUU-* feature row: per instance of a
// functional-unit pool, the PC of the op executing this cycle (0 when
// idle).
func appendBusyPCs(dst []uint64, pool []fuSlot, now int64) []uint64 {
	for _, s := range pool {
		if s.busyUntil > now {
			dst = append(dst, s.pc)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// AppendALUBusy appends the EUU-ALU feature row to dst.
func (p *Probe) AppendALUBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, p.c.alus, p.c.cycle)
}

// AppendMulBusy appends the EUU-MUL feature row to dst.
func (p *Probe) AppendMulBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, p.c.muls, p.c.cycle)
}

// AppendDivBusy appends the EUU-DIV feature row to dst.
func (p *Probe) AppendDivBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, p.c.divs, p.c.cycle)
}

// AppendAGUBusy appends the EUU-ADDRGEN feature row to dst.
func (p *Probe) AppendAGUBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, p.c.agus, p.c.cycle)
}

// AppendPrefetchAddrs appends the NLP-ADDR feature row: the line
// addresses of outstanding next-line prefetches.
func (p *Probe) AppendPrefetchAddrs(dst []uint64) []uint64 {
	for _, m := range p.c.dc.nlp {
		if m.valid {
			dst = append(dst, m.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	return dst
}

// AppendCacheRequests appends the Cache-ADDR feature row: the demand
// addresses presented to the D-cache this cycle.
func (p *Probe) AppendCacheRequests(dst []uint64) []uint64 {
	for _, r := range p.c.dc.reqThisCycle {
		dst = append(dst, r.addr)
	}
	return dst
}

// AppendTLBPages appends the TLB-ADDR feature row: the valid data-TLB
// page numbers, most recently used first — this exposes the translation
// unit's replacement state, which is RTL state.
func (p *Probe) AppendTLBPages(dst []uint64) []uint64 {
	for _, e := range p.c.dc.tlb.recencyScratch() {
		dst = append(dst, e.page)
	}
	return dst
}

// AppendSPFAddrs appends the SPF-ADDR feature row: the line addresses of
// outstanding stride prefetches. Empty when the stride prefetcher is
// disabled (the trackers never become valid).
func (p *Probe) AppendSPFAddrs(dst []uint64) []uint64 {
	for _, m := range p.c.dc.spf {
		if m.valid {
			dst = append(dst, m.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	return dst
}

// AppendSPFPCs appends the slot-aligned training-load PCs of the
// outstanding stride prefetches, attributing each SPF-ADDR value to the
// load stream whose stride pattern triggered it. A prefetched line is
// often one the program never demand-accesses (the stream's runahead),
// so unlike the demand-miss units SPF-ADDR cannot be attributed through
// load/store address maps.
func (p *Probe) AppendSPFPCs(dst []uint64) []uint64 {
	for _, m := range p.c.dc.spf {
		if m.valid {
			dst = append(dst, m.trainPC)
		}
	}
	return dst
}

// AppendBPredMeta appends the TAGE-PRED feature row: the packed TAGE
// prediction metadata (provider table, provider entry index, predicted
// direction) of every conditional branch in flight, in ROB age order —
// the payload a BOOM-style fetch target queue keeps alive from fetch to
// commit. Empty under the gshare predictor.
func (p *Probe) AppendBPredMeta(dst []uint64) []uint64 {
	if p.c.tg == nil {
		return dst
	}
	for _, h := range p.c.rob.q {
		if u := &p.c.uops[h]; !u.folded && u.inst.IsCondBranch() {
			dst = append(dst, u.phtIdx)
		}
	}
	return dst
}

// AppendBPredPCs appends the slot-aligned branch PCs of the in-flight
// prediction metadata, for attributing TAGE-PRED events to the
// predicted branches. Empty under the gshare predictor.
func (p *Probe) AppendBPredPCs(dst []uint64) []uint64 {
	if p.c.tg == nil {
		return dst
	}
	for _, h := range p.c.rob.q {
		if u := &p.c.uops[h]; !u.folded && u.inst.IsCondBranch() {
			dst = append(dst, u.pc)
		}
	}
	return dst
}

// AppendMSHRAddrs appends the MSHR-ADDR feature row: the line addresses
// of outstanding misses — demand MSHRs plus the prefetchers' dedicated
// miss trackers.
func (p *Probe) AppendMSHRAddrs(dst []uint64) []uint64 {
	for _, m := range p.c.dc.mshrs {
		if m.valid {
			dst = append(dst, m.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	for _, m := range p.c.dc.nlp {
		if m.valid {
			dst = append(dst, m.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	for _, m := range p.c.dc.spf {
		if m.valid {
			dst = append(dst, m.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	return dst
}
