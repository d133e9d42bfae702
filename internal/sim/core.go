package sim

import (
	"encoding/binary"
	"fmt"

	"microsampler/internal/isa"
)

// fuSlot tracks occupancy of one functional-unit instance for the
// execution-unit-utilisation (EUU) features.
type fuSlot struct {
	busyUntil int64
	pc        uint64
	seq       uint64
}

// fuPool is the set of instances of one functional-unit kind. gen
// counts its acquires, for the change mark of its EUU row.
type fuPool struct {
	slots []fuSlot
	gen   uint64
}

// acquire occupies the first free instance with u for lat cycles from
// now. It reports false when every instance is busy.
func (p *fuPool) acquire(now, lat int64, u *uop) bool {
	for i := range p.slots {
		if p.slots[i].busyUntil <= now {
			p.slots[i] = fuSlot{busyUntil: now + lat, pc: u.pc, seq: u.seq}
			p.gen++
			return true
		}
	}
	return false
}

// Core is the out-of-order pipeline.
type Core struct {
	cfg Config
	mem *Memory
	dc  *dcache
	ic  *icache
	bp  branchPredictor
	tgt *targets // BTB and RAS, whichever direction predictor runs
	// tg aliases bp when the TAGE predictor is configured, giving the
	// probe access to the prediction-metadata ring; nil under gshare.
	tg *tage

	cycle int64
	seq   uint64

	// Front end.
	fetchPC      uint64
	fetchReadyAt int64
	fetchBuf     window[uopID]
	fetchTrapped bool

	// Rename state.
	rat      [32]int16
	prfVal   []uint64
	prfReady []int64 // cycle at which the register becomes readable
	freeList []int16

	// Uop arena: every uop in flight is an element of uops, named by
	// its index; freeUops holds the unused indices. The windows below
	// hold these handles, not pointers.
	uops     []uop
	freeUops []uopID

	// Windows.
	rob window[uopID]
	ldq window[uopRef]
	stq window[uopRef]

	// robFolded counts the folded uops in rob, which occupy no slot of
	// their own (robOccupancy).
	robFolded int
	// robPCs holds the PCs of rob's non-folded uops in age order: the
	// ROB-PC row. A fold at issue takes a uop out of its middle, so it
	// marks the list stale and the next read rebuilds it.
	robPCs      window[uint64]
	robPCsStale bool

	// Change marks: each counts the writes to a structure that a probe
	// row reads (ROB PCs, LDQ, STQ, in-flight conditional branches).
	robGen, ldqGen, stqGen, branchGen uint64

	// Issue scheduling. ready holds, in age order, the dispatched uops
	// whose sources all have a ready cycle: the only ones issue can act
	// on, once that cycle comes. A uop with a source whose producer has
	// not yet set its ready cycle waits in that register's list, which
	// starts at waitHead (-1: empty) and runs youngest first.
	ready    []uopRef
	waitHead []uopID
	// loads holds, in age order, the loads whose address is ready and
	// that have not yet accessed memory: the only LDQ entries
	// issueMemory can act on.
	loads []uopRef
	// storeChanges counts the changes that can lift a load's block: a
	// store resolving its address and data, completing and draining. A
	// store dispatched later is younger than every load on loads, and a
	// squash removes only stores younger than every load it keeps.
	storeChanges uint64

	// resolved lists the load and store addresses computed this cycle.
	resolved []Resolution

	// exec holds, in age order, the uops whose doneAt is set and that
	// have not completed: the only ROB entries complete can act on.
	exec []uopRef

	// text is the program's text segment decoded once at load time,
	// one entry per word from textBase. textPages are the memory pages
	// holding it, from the one containing textBase: memory never frees
	// a page, so every later write into the text lands in them.
	text      []predecoded
	textBase  uint64
	textPages []*[pageBytes]byte

	// Committed stores being drained to the D-cache; entries stay in the
	// STQ until the drain completes.
	drainBusyUntil int64

	// Sequence number of an in-flight serializing op (FENCE/CBO.FLUSH);
	// dispatch stalls until it commits. Zero when none is in flight.
	serializeSeq uint64

	// Functional units.
	alus, muls, divs, agus, brus fuPool

	// Architectural state at commit.
	archRegs [32]uint64

	// Run status.
	halted      bool
	exitCode    uint64
	runErr      error
	output      []byte
	retired     uint64
	lastCommit  int64
	mispredicts uint64
	branches    uint64
	lsuReplays  uint64 // memory ops retried because MSHRs/LFB were full

	tracer Tracer
	// probe is the persistent view handed to the tracer every cycle; it
	// lives on the core so neither the probe nor its scratch buffers are
	// reallocated on the per-cycle hot path.
	probe Probe
}

// Tracer observes per-cycle microarchitectural state and commit-time
// region/iteration markers. It is the analogue of the paper's Chisel
// printf instrumentation.
type Tracer interface {
	// OnCycle is invoked at the end of every simulated cycle.
	OnCycle(p *Probe)
	// OnMark is invoked when a MARK instruction commits.
	OnMark(cycle int64, kind isa.MarkKind, class uint64)
}

func newCore(cfg Config, mem *Memory) *Core {
	c := &Core{
		cfg:      cfg,
		mem:      mem,
		dc:       newDCache(cfg, mem),
		ic:       newICache(cfg),
		prfVal:   make([]uint64, cfg.IntPRF),
		prfReady: make([]int64, cfg.IntPRF),
		alus:     fuPool{slots: make([]fuSlot, cfg.NumALU)},
		muls:     fuPool{slots: make([]fuSlot, cfg.NumMul)},
		divs:     fuPool{slots: make([]fuSlot, cfg.NumDiv)},
		agus:     fuPool{slots: make([]fuSlot, cfg.NumAGU)},
		brus:     fuPool{slots: make([]fuSlot, cfg.IssueWidth)},
		tgt:      newTargets(cfg.BTBEntries),
	}
	if cfg.TAGEPredictor {
		c.tg = newTAGE(cfg.BranchPredEnts)
		c.bp = c.tg
	} else {
		c.bp = newGshare(cfg.BranchPredEnts)
	}
	for i := 0; i < 32; i++ {
		c.rat[i] = int16(i)
	}
	// A uop lives from fetch until it commits, or until it drains if it
	// is a store, so the fetch buffer, the ROB and the committed tail of
	// the STQ bound how many are in flight; one fetch group is headroom.
	n := cfg.ROBEntries + max(cfg.FetchBufferSize, 0) + cfg.FetchWidth + cfg.STQEntries
	c.uops = make([]uop, n)
	c.freeUops = make([]uopID, n)
	for i := range c.freeUops {
		c.freeUops[i] = uopID(n - 1 - i)
	}
	c.fetchBuf = newWindow[uopID](cfg.FetchBufferSize)
	c.rob = newWindow[uopID](cfg.ROBEntries)
	c.ldq = newWindow[uopRef](cfg.LDQEntries)
	c.stq = newWindow[uopRef](cfg.STQEntries)
	c.robPCs = newWindow[uint64](cfg.ROBEntries)
	c.exec = make([]uopRef, 0, cfg.ROBEntries)
	c.ready = make([]uopRef, 0, cfg.ROBEntries)
	c.loads = make([]uopRef, 0, cfg.LDQEntries)
	c.waitHead = make([]uopID, cfg.IntPRF)
	for i := range c.waitHead {
		c.waitHead[i] = -1
	}
	c.freeList = make([]int16, 0, cfg.IntPRF)
	for i := cfg.IntPRF - 1; i >= 32; i-- {
		c.freeList = append(c.freeList, int16(i))
	}
	c.probe = Probe{c: c}
	return c
}

// step advances the pipeline by one cycle.
func (c *Core) step() {
	c.cycle++
	c.resolved = c.resolved[:0]
	c.dc.tick(c.cycle)

	c.commit()
	c.drainStores()
	c.complete()
	c.issueMemory()
	c.issue()
	c.dispatch()
	c.fetch()

	if c.tracer != nil {
		c.tracer.OnCycle(&c.probe)
	}
	if !c.halted && c.cycle-c.lastCommit > 100000 {
		c.fail(fmt.Errorf("sim: pipeline made no progress for 100000 cycles (pc≈%#x)", c.fetchPC))
	}
}

func (c *Core) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.halted = true
}

// ---------------------------------------------------------------------
// Commit.

func (c *Core) commit() {
	for n := 0; n < c.cfg.RetireWidth && len(c.rob.q) > 0; n++ {
		h := c.rob.q[0]
		u := &c.uops[h]
		if !u.completed {
			return
		}
		// FENCE and iteration-end markers retire only once all older
		// stores have drained to the D-cache: FENCE for memory-ordering
		// semantics, iter.end so each measured iteration is charged its
		// own memory traffic (the paper's long iterations absorb their
		// drains naturally; scaled-down ones need the barrier).
		drainBarrier := u.inst.Op == isa.OpFENCE ||
			(u.inst.Op == isa.OpMARK && isa.MarkKind(u.inst.Imm) == isa.MarkIterEnd)
		if drainBarrier {
			olderStore := len(c.stq.q) > 0 && c.stq.q[0].seq < u.seq
			if olderStore || c.cycle < c.drainBusyUntil {
				return
			}
		}
		if u.trap {
			c.fail(fmt.Errorf("sim: illegal instruction at pc %#x", u.pc))
			return
		}
		switch {
		case u.class == isa.ClassStore:
			// The architectural write happens at commit; the D-cache
			// drain (timing) follows. The STQ entry is released once
			// the drain completes.
			c.mem.Write(u.memAddr, int(u.memSize), u.storeData)
		case u.inst.Op == isa.OpECALL:
			c.syscall()
			if c.halted {
				c.popROBHead(h)
				return
			}
		case u.inst.Op == isa.OpMARK:
			if c.tracer != nil {
				c.tracer.OnMark(c.cycle, isa.MarkKind(u.inst.Imm), u.result)
			}
		case u.inst.Op == isa.OpCBOFLUSH:
			c.dc.flush(u.result)
			c.ic.flush(u.result)
		}
		if u.seq == c.serializeSeq {
			c.serializeSeq = 0
		}
		if u.pdst >= 0 && u.inst.Rd != isa.Zero {
			c.archRegs[u.inst.Rd] = u.result
			if u.stale >= 32 {
				c.freeList = append(c.freeList, u.stale)
			}
		}
		c.popROBHead(h)
	}
}

func (c *Core) popROBHead(h uopID) {
	c.rob.q = c.rob.q[1:]
	c.retired++
	c.lastCommit = c.cycle
	u := &c.uops[h]
	if u.folded {
		c.robFolded--
	} else {
		c.robGen++
		if !c.robPCsStale {
			c.robPCs.q = c.robPCs.q[1:]
		}
	}
	if u.inst.IsCondBranch() {
		c.branchGen++
	}
	if u.class == isa.ClassLoad && len(c.ldq.q) > 0 && c.ldq.q[0].h == h {
		c.ldq.q = c.ldq.q[1:]
		c.ldqGen++
	}
	// A store keeps its uop until its drain completes (drainStores).
	if u.class != isa.ClassStore {
		c.releaseUops(h)
	}
}

func (c *Core) syscall() {
	switch c.archRegs[isa.A7] {
	case 93: // exit
		c.exitCode = c.archRegs[isa.A0]
		c.halted = true
	case 64: // write
		addr, n := c.archRegs[isa.A1], c.archRegs[isa.A2]
		if n > 1<<20 {
			c.fail(fmt.Errorf("sim: write syscall length %d too large", n))
			return
		}
		c.output = append(c.output, c.mem.ReadBytes(addr, int(n))...)
		c.archRegs[isa.A0] = n
	default:
		c.fail(fmt.Errorf("sim: unsupported syscall %d", c.archRegs[isa.A7]))
	}
}

// drainStores sends committed stores to the D-cache, one at a time; a
// missing line blocks the drain until its fill completes, which is what
// creates the cache-residency timing channel of case study ME-V1-MV.
func (c *Core) drainStores() {
	if c.cycle < c.drainBusyUntil {
		return
	}
	// The head of the STQ is the oldest store. It drains only after its
	// uop has committed (it is no longer in the ROB).
	if len(c.stq.q) == 0 {
		return
	}
	h := c.stq.q[0].h
	u := &c.uops[h]
	if !c.isCommitted(u) {
		return
	}
	done, ok := c.dc.access(c.cycle, u.memAddr, u.pc)
	if !ok {
		c.lsuReplays++
		return
	}
	c.drainBusyUntil = done
	c.stq.q = c.stq.q[1:]
	c.stqGen++
	c.storeChanges++
	c.releaseUops(h)
}

func (c *Core) isCommitted(u *uop) bool {
	return len(c.rob.q) == 0 || u.seq < c.uops[c.rob.q[0]].seq
}

// ---------------------------------------------------------------------
// Completion and branch resolution.

func (c *Core) complete() {
	kept := c.exec[:0]
	for _, r := range c.exec {
		u := &c.uops[r.h]
		if u.doneAt > c.cycle {
			kept = append(kept, r)
			continue
		}
		u.completed = true
		switch u.class {
		case isa.ClassStore:
			c.storeChanges++
		case isa.ClassBranch:
			if !u.resolved && c.resolveBranch(u) {
				c.exec = kept
				return // squash performed; every later entry was younger and is gone
			}
		}
	}
	c.exec = kept
}

// addExec enters h, whose doneAt has just been set, into exec at its
// age position.
func (c *Core) addExec(h uopID) {
	c.exec = insertByAge(c.exec, uopRef{h, c.uops[h].seq})
}

// resolveBranch trains the predictor and squashes on a misprediction.
// It reports whether a squash happened.
func (c *Core) resolveBranch(u *uop) bool {
	u.resolved = true
	c.branches++
	if u.inst.IsCondBranch() {
		c.bp.train(u.phtIdx, u.pc, u.histChk, u.taken)
	}
	if u.inst.Op == isa.OpJALR {
		c.tgt.btbUpdate(u.pc, u.target)
	}
	mispredicted := u.taken != u.predTaken || (u.taken && u.target != u.predTarget)
	if !mispredicted {
		return false
	}
	c.mispredicts++
	c.squashAfter(u)
	if u.inst.IsCondBranch() {
		c.bp.restoreHistory(u.histChk, u.taken)
	}
	redirect := u.target
	if !u.taken {
		redirect = u.pc + 4
	}
	c.fetchPC = redirect
	c.fetchReadyAt = c.cycle + 2 // redirect penalty
	c.fetchTrapped = false
	c.releaseUops(c.fetchBuf.q...)
	c.fetchBuf.q = c.fetchBuf.q[:0]
	return true
}

// squashAfter removes every uop younger than the branch u from the
// pipeline and restores the rename state to u's checkpoint.
func (c *Core) squashAfter(u *uop) {
	c.rat = u.ratChk
	squashSeq := u.seq
	c.ldq.q = trimRefs(c.ldq.q, squashSeq)
	c.stq.q = trimRefs(c.stq.q, squashSeq)
	c.ready = trimRefs(c.ready, squashSeq)
	c.loads = trimRefs(c.loads, squashSeq)
	// Free destination registers of squashed uops, youngest first, so
	// the free list returns to its pre-allocation order. Every squashed
	// uop is in the ROB, so this also releases their handles, after
	// taking them off the wait lists. A squashed uop still waiting on a
	// register heads that register's list by now, since everything
	// pushed after it is younger still.
	i, pcs := len(c.rob.q), 0
	for ; i > 0 && c.uops[c.rob.q[i-1]].seq > squashSeq; i-- {
		h := c.rob.q[i-1]
		v := &c.uops[h]
		for s, p := range [2]int16{v.ps1, v.ps2} {
			if v.pending > 0 && p >= 0 && c.waitHead[p] == h {
				c.waitHead[p] = v.next[s]
			}
		}
		if v.pdst >= 32 {
			c.freeList = append(c.freeList, v.pdst)
		}
		if v.folded {
			c.robFolded--
		} else {
			pcs++
		}
		c.releaseUops(h)
	}
	c.rob.q = c.rob.q[:i]
	if !c.robPCsStale {
		c.robPCs.q = c.robPCs.q[:len(c.robPCs.q)-pcs]
	}
	c.robGen++
	c.ldqGen++
	c.stqGen++
	c.branchGen++
	if c.serializeSeq > squashSeq {
		c.serializeSeq = 0
	}
	for _, pool := range [...]*fuPool{&c.alus, &c.muls, &c.divs, &c.agus, &c.brus} {
		for i := range pool.slots {
			if s := &pool.slots[i]; s.busyUntil > c.cycle && s.seq > squashSeq {
				*s = fuSlot{}
			}
		}
	}
}

// trimRefs drops the refs younger than seq from the tail of the
// age-ordered list q.
func trimRefs(q []uopRef, seq uint64) []uopRef {
	for len(q) > 0 && q[len(q)-1].seq > seq {
		q = q[:len(q)-1]
	}
	return q
}

// ---------------------------------------------------------------------
// Memory issue (loads accessing the D-cache, with STQ forwarding).

func (c *Core) issueMemory() {
	older := 0
	kept := c.loads[:0]
	for _, r := range c.loads {
		h, ld := r.h, &c.uops[r.h]
		if c.stillBlocked(ld) {
			kept = append(kept, r)
			continue
		}
		older = c.olderStores(older, ld.seq)
		st, blocked := c.olderStoreConflict(ld, c.stq.q[:older])
		if blocked {
			ld.blockedAt = c.storeChanges + 1
			kept = append(kept, r)
			continue
		}
		if st != nil {
			// Store-to-load forwarding.
			shift := (ld.memAddr - st.memAddr) * 8
			raw := st.storeData >> shift
			ld.result = loadExtend(ld.inst.Op, raw)
			ld.memIssued = true
			ld.doneAt = c.cycle + 1
			c.writeBack(ld)
			c.addExec(h)
			continue
		}
		done, ok := c.dc.access(c.cycle, ld.memAddr, ld.pc)
		if !ok {
			c.lsuReplays++
			kept = append(kept, r)
			continue
		}
		raw := c.mem.Read(ld.memAddr, int(ld.memSize))
		ld.result = loadExtend(ld.inst.Op, raw)
		ld.memIssued = true
		ld.doneAt = done
		c.writeBack(ld)
		c.addExec(h)
	}
	c.loads = kept
}

// olderStores advances an STQ cursor from i past the stores older
// than seq. The LDQ and the STQ are both age-ordered, so along the LDQ
// the cursor only moves forward.
func (c *Core) olderStores(i int, seq uint64) int {
	for i < len(c.stq.q) && c.stq.q[i].seq < seq {
		i++
	}
	return i
}

// olderStoreConflict scans older, the stores older than ld, from the
// youngest. It returns a forwarding source when the youngest
// overlapping one fully covers the load, or blocked=true when the load
// must wait (unknown address, partial overlap, or covering store whose
// data is not yet available).
func (c *Core) olderStoreConflict(ld *uop, older []uopRef) (fwd *uop, blocked bool) {
	for i := len(older) - 1; i >= 0; i-- {
		st := &c.uops[older[i].h]
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

// stillBlocked reports whether an older store blocked ld with no store
// change since, so that a scan would block it again.
func (c *Core) stillBlocked(ld *uop) bool {
	return ld.blockedAt == c.storeChanges+1
}

// ---------------------------------------------------------------------
// Issue and execute.

func (c *Core) srcReady(p int16) bool {
	return p < 0 || c.prfReady[p] <= c.cycle
}

func (c *Core) srcVal(p int16) uint64 {
	if p < 0 {
		return 0
	}
	return c.prfVal[p]
}

// enqueue enters a dispatched uop into the scheduler. It waits on each
// source whose producer has not yet set a ready cycle, and once none is
// left it joins the ready list, to issue from the latest ready cycle
// among them.
func (c *Core) enqueue(h uopID) {
	u := &c.uops[h]
	for s, p := range [2]int16{u.ps1, u.ps2} {
		switch {
		case p < 0 || (s == 1 && p == u.ps1):
		case c.prfReady[p] != never:
			u.readyAt = max(u.readyAt, c.prfReady[p])
		default:
			u.pending++
			u.next[s] = c.waitHead[p]
			c.waitHead[p] = h
		}
	}
	if u.pending == 0 {
		c.ready = insertByAge(c.ready, uopRef{h, u.seq})
	}
}

// writeBack makes u's result readable from its ready cycle, doneAt, and
// wakes the uops waiting on its destination register.
func (c *Core) writeBack(u *uop) {
	p := u.pdst
	if p < 0 {
		return
	}
	c.prfVal[p] = u.result
	c.prfReady[p] = u.doneAt
	for h := c.waitHead[p]; h >= 0; {
		w := &c.uops[h]
		next := w.next[0]
		if w.ps1 != p {
			next = w.next[1]
		}
		w.readyAt = max(w.readyAt, u.doneAt)
		if w.pending--; w.pending == 0 {
			c.ready = insertByAge(c.ready, uopRef{h, w.seq})
		}
		h = next
	}
	c.waitHead[p] = -1
}

// insertByAge inserts r into the age-ordered list q, which has room
// for it.
func insertByAge(q []uopRef, r uopRef) []uopRef {
	q = append(q, r)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > r.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = r
	return q
}

func (c *Core) issue() {
	issued, kept, i := 0, 0, 0
	// The walk keeps in place the uops whose ready cycle is still ahead
	// and those that do not issue. A uop woken during it (by a fold,
	// whose result is readable at once) is younger than its producer at
	// i, so it is inserted beyond i.
	for ; i < len(c.ready) && issued < c.cfg.IssueWidth; i++ {
		r := c.ready[i]
		if c.uops[r.h].readyAt > c.cycle || !c.tryIssue(r.h) {
			c.ready[kept] = r
			kept++
			continue
		}
		if c.uops[r.h].doneAt != never { // a load joins when it accesses memory
			c.addExec(r.h)
		}
		issued++
	}
	if kept < i {
		c.ready = append(c.ready[:kept], c.ready[i:]...)
	}
}

// tryIssue executes u functionally if a functional unit is available.
func (c *Core) tryIssue(h uopID) bool {
	u := &c.uops[h]
	v1 := c.srcVal(u.ps1)
	v2 := c.srcVal(u.ps2)
	now := c.cycle

	switch u.class {
	case isa.ClassALU:
		// Fast bypass, late check (Section VII-B1 step 2.2): an AND
		// whose operand arrived as zero via the bypass network is
		// folded at issue — it never occupies an ALU and its dependents
		// wake immediately.
		if c.cfg.FastBypass && u.inst.Op == isa.OpAND && (v1 == 0 || v2 == 0) {
			u.folded = true
			c.robFolded++
			c.robGen++
			c.robPCsStale = true
			u.result = 0
			u.doneAt = now
			break
		}
		if !c.alus.acquire(now, 1, u) {
			return false
		}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + 1

	case isa.ClassMul:
		lat := int64(c.cfg.MulLat)
		if !c.muls.acquire(now, lat, u) {
			return false
		}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + lat

	case isa.ClassDiv:
		lat := divLatency(c.cfg, v1, v2)
		if !c.divs.acquire(now, lat, u) {
			return false
		}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + lat

	case isa.ClassBranch:
		if !c.brus.acquire(now, 1, u) {
			return false
		}
		u.taken, u.target = branchOutcome(u.inst, v1, v2, u.pc)
		u.result = execALU(u.inst, v1, v2, u.pc) // link value for jal/jalr
		u.doneAt = now + 1

	case isa.ClassLoad:
		if !c.agus.acquire(now, 1, u) {
			return false
		}
		u.memAddr = v1 + uint64(u.inst.Imm)
		u.memSize = memAccessSize(u.inst.Op)
		u.addrReady = true
		c.ldqGen++
		c.resolved = append(c.resolved, Resolution{Addr: u.memAddr, PC: u.pc})
		// doneAt is set by issueMemory once the access completes.
		c.loads = insertByAge(c.loads, uopRef{h, u.seq})
		u.issued = true
		return true

	case isa.ClassStore:
		if !c.agus.acquire(now, 1, u) {
			return false
		}
		u.memAddr = v1 + uint64(u.inst.Imm)
		u.memSize = memAccessSize(u.inst.Op)
		u.storeData = v2
		u.addrReady = true
		c.stqGen++
		c.storeChanges++
		c.resolved = append(c.resolved, Resolution{Addr: u.memAddr, PC: u.pc, Store: true})
		u.doneAt = now + 1

	case isa.ClassSystem:
		// System ops need no functional unit; MARK and CBO carry their
		// rs1 value as the result.
		u.result = v1
		u.doneAt = now + 1
	}

	u.issued = true
	c.writeBack(u)
	return true
}

// ---------------------------------------------------------------------
// Dispatch (rename + allocate).

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DecodeWidth && len(c.fetchBuf.q) > 0; n++ {
		if c.serializeSeq != 0 {
			return
		}
		h := c.fetchBuf.q[0]
		u := &c.uops[h]
		if len(c.rob.q) >= c.cfg.ROBEntries {
			return
		}
		if u.class == isa.ClassLoad && len(c.ldq.q) >= c.cfg.LDQEntries {
			return
		}
		if u.class == isa.ClassStore && len(c.stq.q) >= c.cfg.STQEntries {
			return
		}
		needsPdst := u.inst.WritesRd() && u.inst.Rd != isa.Zero && !u.trap
		if needsPdst && len(c.freeList) == 0 {
			return
		}

		// Rename sources.
		if !u.trap {
			if u.inst.ReadsRs1() {
				u.ps1 = c.rat[u.inst.Rs1]
			}
			if u.inst.ReadsRs2() {
				u.ps2 = c.rat[u.inst.Rs2]
			}
		}
		if needsPdst {
			p := c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			u.pdst = p
			u.stale = c.rat[u.inst.Rd]
			c.rat[u.inst.Rd] = p
			c.prfReady[p] = never
		}
		if u.class == isa.ClassBranch {
			u.ratChk = c.rat
		}

		if u.trap {
			u.completed = true
			u.doneAt = c.cycle
			c.pushROB(h)
			c.fetchBuf.q = c.fetchBuf.q[1:]
			continue
		}

		if c.cfg.FastBypass && c.tryFastBypass(u) {
			c.rob.push(h)
			c.fetchBuf.q = c.fetchBuf.q[1:]
			continue
		}

		c.pushROB(h)
		switch u.class {
		case isa.ClassLoad:
			c.ldq.push(uopRef{h, u.seq})
			c.ldqGen++
		case isa.ClassStore:
			c.stq.push(uopRef{h, u.seq})
			c.stqGen++
		}
		if u.inst.Op == isa.OpFENCE || u.inst.Op == isa.OpCBOFLUSH {
			c.serializeSeq = u.seq
		}
		c.enqueue(h)
		c.fetchBuf.q = c.fetchBuf.q[1:]
	}
}

// pushROB enters a non-folded uop into the ROB.
func (c *Core) pushROB(h uopID) {
	c.rob.push(h)
	c.robGen++
	if !c.robPCsStale {
		c.robPCs.push(c.uops[h].pc)
	}
	if c.uops[h].inst.IsCondBranch() {
		c.branchGen++
	}
}

// tryFastBypass implements the paper's AND-elision optimisation
// (Section VII-B): at rename, if the instruction is an AND and one of
// its operands is already available — from the register file or the
// bypass network — with value zero, the result is written immediately,
// dependents are woken, and the op is folded into the neighbouring ROB
// entry instead of executing on an ALU.
func (c *Core) tryFastBypass(u *uop) bool {
	if u.inst.Op != isa.OpAND {
		return false
	}
	zero := (c.srcReady(u.ps1) && c.srcVal(u.ps1) == 0) ||
		(c.srcReady(u.ps2) && c.srcVal(u.ps2) == 0)
	if !zero {
		return false
	}
	u.folded = true
	c.robFolded++
	u.result = 0
	u.completed = true
	u.doneAt = c.cycle
	c.writeBack(u)
	return true
}

// ---------------------------------------------------------------------
// Fetch.

func (c *Core) fetch() {
	if c.halted || c.fetchTrapped || c.cycle < c.fetchReadyAt {
		return
	}
	room := c.cfg.FetchBufferSize - len(c.fetchBuf.q)
	if room <= 0 {
		return
	}
	ready := c.ic.fetchReady(c.cycle, c.fetchPC)
	if ready > c.cycle {
		c.fetchReadyAt = ready
		return
	}
	n := c.cfg.FetchWidth
	if n > room {
		n = room
	}
	blockMask := ^uint64(c.cfg.ICacheFetchBytes - 1)
	block := c.fetchPC & blockMask
	pc := c.fetchPC

	for i := 0; i < n; i++ {
		if pc&blockMask != block {
			break // stay within one aligned fetch block per cycle
		}
		inst, ok := c.decode(pc)
		h := c.newUop(pc, inst)
		u := &c.uops[h]
		if !ok {
			u.trap = true
			c.fetchBuf.push(h)
			c.fetchTrapped = true
			return
		}

		redirected := false
		switch {
		case inst.IsCondBranch():
			taken, idx := c.bp.predict(pc)
			u.phtIdx = idx
			u.histChk = c.bp.shiftHistory(taken)
			u.predTaken = taken
			u.predTarget = pc + uint64(inst.Imm)
			if taken {
				pc = u.predTarget
				redirected = true
			}
		case inst.Op == isa.OpJAL:
			u.predTaken = true
			u.predTarget = pc + uint64(inst.Imm)
			if inst.Rd == isa.RA {
				c.tgt.rasPush(pc + 4) // call: remember the return address
			}
			pc = u.predTarget
			redirected = true
		case inst.Op == isa.OpJALR:
			u.predTaken = true
			// Only a return pops the RAS: an indirect jump or call
			// must leave the caller's return address in place.
			isRet := inst.Rd == isa.Zero && inst.Rs1 == isa.RA
			t, ok := uint64(0), false
			if isRet {
				t, ok = c.tgt.rasPop()
			}
			if !ok {
				t, ok = c.tgt.btbLookup(pc)
			}
			if !ok {
				t = pc + 4
			}
			u.predTarget = t
			if inst.Rd == isa.RA {
				c.tgt.rasPush(pc + 4) // indirect call
			}
			pc = u.predTarget
			redirected = true
		}
		c.fetchBuf.push(h)
		if redirected {
			c.fetchPC = pc
			return
		}
		pc += 4
	}
	c.fetchPC = pc
}

// predecoded is one text word and its decoding.
type predecoded struct {
	word uint32
	inst isa.Inst
	ok   bool
}

// decode decodes the word fetched at pc. A text word is decoded once,
// at load time; the entry serves only while memory still holds that
// word, so a store into the text is never fetched stale.
func (c *Core) decode(pc uint64) (isa.Inst, bool) {
	var word uint32
	if off := pc - c.textBase; off%4 == 0 && off/4 < uint64(len(c.text)) && pc%pageBytes <= pageBytes-4 {
		pg := c.textPages[pc/pageBytes-c.textBase/pageBytes]
		word = binary.LittleEndian.Uint32(pg[pc%pageBytes:])
		if e := &c.text[off/4]; e.word == word {
			return e.inst, e.ok
		}
	} else {
		word = uint32(c.mem.Read(pc, 4))
	}
	inst, err := isa.Decode(word)
	return inst, err == nil
}
