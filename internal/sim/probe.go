package sim

// Probe exposes the per-cycle microarchitectural state that MicroSampler
// tracks (Table IV of the paper). A Probe is only valid during the
// Tracer.OnCycle call that delivered it.
//
// Each Append* method appends one unit's state row for the current cycle
// to a caller-provided buffer, so a tracer that reuses its buffers
// samples without allocating. Each *Gen method returns the change mark
// of the structure behind some rows: a word that differs from the one
// it returned on an earlier cycle whenever those rows may have changed
// since, so a tracer can skip rebuilding a row whose mark held.
// StoreQueue and LoadQueue additionally expose the queue slots with
// their address-valid bit, which the rows encode as a 0 address; their
// slices are backed by probe-owned scratch and valid only until the
// next call of the same method. Resolutions lists the entries whose
// address became valid in the current cycle.
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

// Resolution is one load or store address computed in the current
// cycle.
type Resolution struct {
	Addr, PC uint64
	Store    bool
}

// Resolutions returns the load and store addresses computed in the
// current cycle, in issue order. An LSQ entry turns valid only here and
// stays valid until it leaves its queue. The slice is valid for the
// current OnCycle call only.
func (p *Probe) Resolutions() []Resolution { return p.c.resolved }

func (p *Probe) appendLSQ(dst []LSQEntry, q []uopRef) []LSQEntry {
	for _, r := range q {
		u := &p.c.uops[r.h]
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

func (p *Probe) appendAddrs(dst []uint64, q []uopRef) []uint64 {
	for _, r := range q {
		if u := &p.c.uops[r.h]; u.addrReady {
			dst = append(dst, u.memAddr)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (p *Probe) appendPCs(dst []uint64, q []uopRef) []uint64 {
	for _, r := range q {
		dst = append(dst, p.c.uops[r.h].pc)
	}
	return dst
}

// AppendROBPCs appends the ROB-PC feature row: the program counters of
// the occupied (non-folded) reorder-buffer slots in age order.
func (p *Probe) AppendROBPCs(dst []uint64) []uint64 {
	c := p.c
	if c.robPCsStale {
		c.robPCs.q = c.robPCs.base[:0]
		for _, h := range c.rob.q {
			if u := &c.uops[h]; !u.folded {
				c.robPCs.push(u.pc)
			}
		}
		c.robPCsStale = false
	}
	return append(dst, c.robPCs.q...)
}

// ROBOccupancy returns the number of occupied (non-folded) ROB slots.
func (p *Probe) ROBOccupancy() int { return p.c.robOccupancy() }

// robOccupancy counts the occupied (non-folded) reorder-buffer slots.
func (c *Core) robOccupancy() int { return len(c.rob.q) - c.robFolded }

// AppendLFBData appends the LFB-Data feature row: per valid fill-buffer
// entry, the first doubleword of the line (0 while the fill is in
// flight).
func (p *Probe) AppendLFBData(dst []uint64) []uint64 {
	for _, e := range p.c.dc.lfb[:p.c.dc.lfbLive] {
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
	for _, e := range p.c.dc.lfb[:p.c.dc.lfbLive] {
		if e.valid {
			dst = append(dst, e.lineAddr<<p.c.dc.cache.lineShift)
		}
	}
	return dst
}

// appendBusyPCs appends an EUU-* feature row: per instance of a
// functional-unit pool, the PC of the op executing this cycle (0 when
// idle).
func appendBusyPCs(dst []uint64, pool *fuPool, now int64) []uint64 {
	for _, s := range pool.slots {
		if s.busyUntil > now {
			dst = append(dst, s.pc)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// busyGen is the change mark of an EUU-* row: the pool's acquire count
// and its busy instances. Between two acquires instances only fall idle,
// as their op completes or is squashed, so the busy count tells every
// such change apart.
func busyGen(pool *fuPool, now int64) uint64 {
	busy := uint64(0)
	for _, s := range pool.slots {
		if s.busyUntil > now {
			busy++
		}
	}
	return pool.gen<<16 | busy
}

// AppendALUBusy appends the EUU-ALU feature row to dst.
func (p *Probe) AppendALUBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, &p.c.alus, p.c.cycle)
}

// AppendMulBusy appends the EUU-MUL feature row to dst.
func (p *Probe) AppendMulBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, &p.c.muls, p.c.cycle)
}

// AppendDivBusy appends the EUU-DIV feature row to dst.
func (p *Probe) AppendDivBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, &p.c.divs, p.c.cycle)
}

// AppendAGUBusy appends the EUU-ADDRGEN feature row to dst.
func (p *Probe) AppendAGUBusy(dst []uint64) []uint64 {
	return appendBusyPCs(dst, &p.c.agus, p.c.cycle)
}

// AppendPrefetchAddrs appends the NLP-ADDR feature row: the line
// addresses of outstanding next-line prefetches.
func (p *Probe) AppendPrefetchAddrs(dst []uint64) []uint64 { return p.appendLines(dst, pfNLP) }

// appendLines appends the line base addresses of the outstanding fills
// from source src.
func (p *Probe) appendLines(dst []uint64, src uint8) []uint64 {
	for _, m := range p.c.dc.trackers[src].slots {
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
func (p *Probe) AppendSPFAddrs(dst []uint64) []uint64 { return p.appendLines(dst, pfSPF) }

// AppendSPFPCs appends the slot-aligned training-load PCs of the
// outstanding stride prefetches, attributing each SPF-ADDR value to the
// load stream whose stride pattern triggered it. A prefetched line is
// often one the program never demand-accesses (the stream's runahead),
// so unlike the demand-miss units SPF-ADDR cannot be attributed through
// load/store address maps.
func (p *Probe) AppendSPFPCs(dst []uint64) []uint64 {
	for _, m := range p.c.dc.trackers[pfSPF].slots {
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
	for src := range p.c.dc.trackers {
		dst = p.appendLines(dst, uint8(src))
	}
	return dst
}

// ROBGen is the change mark of the ROB-PC row.
func (p *Probe) ROBGen() uint64 { return p.c.robGen }

// StoreQueueGen is the change mark of the SQ-ADDR and SQ-PC rows.
func (p *Probe) StoreQueueGen() uint64 { return p.c.stqGen }

// LoadQueueGen is the change mark of the LQ-ADDR and LQ-PC rows.
func (p *Probe) LoadQueueGen() uint64 { return p.c.ldqGen }

// BPredGen is the change mark of the TAGE-PRED row.
func (p *Probe) BPredGen() uint64 {
	if p.c.tg == nil {
		return 0
	}
	return p.c.branchGen
}

// ALUGen is the change mark of the EUU-ALU row.
func (p *Probe) ALUGen() uint64 { return busyGen(&p.c.alus, p.c.cycle) }

// MulGen is the change mark of the EUU-MUL row.
func (p *Probe) MulGen() uint64 { return busyGen(&p.c.muls, p.c.cycle) }

// DivGen is the change mark of the EUU-DIV row.
func (p *Probe) DivGen() uint64 { return busyGen(&p.c.divs, p.c.cycle) }

// AGUGen is the change mark of the EUU-ADDRGEN row.
func (p *Probe) AGUGen() uint64 { return busyGen(&p.c.agus, p.c.cycle) }

// LFBGen is the change mark of the LFB-Data and LFB-ADDR rows.
func (p *Probe) LFBGen() uint64 { return p.c.dc.lfbGen }

// PrefetchGen is the change mark of the NLP-ADDR row.
func (p *Probe) PrefetchGen() uint64 { return p.c.dc.trackers[pfNLP].gen }

// CacheRequestGen is the change mark of the Cache-ADDR row.
func (p *Probe) CacheRequestGen() uint64 { return p.c.dc.reqGen }

// TLBGen is the change mark of the TLB-ADDR row.
func (p *Probe) TLBGen() uint64 { return p.c.dc.tlb.gen }

// MSHRGen is the change mark of the MSHR-ADDR row, which reads the
// demand MSHRs and both prefetchers' trackers.
func (p *Probe) MSHRGen() uint64 {
	t := &p.c.dc.trackers
	return t[pfNone].gen + t[pfNLP].gen + t[pfSPF].gen
}

// SPFGen is the change mark of the SPF-ADDR row.
func (p *Probe) SPFGen() uint64 { return p.c.dc.trackers[pfSPF].gen }
