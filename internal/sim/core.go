package sim

import (
	"fmt"
	"slices"

	"microsampler/internal/isa"
)

// fuSlot tracks occupancy of one functional-unit instance for the
// execution-unit-utilisation (EUU) features.
type fuSlot struct {
	busyUntil int64
	pc        uint64
	seq       uint64
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
	fetchBuf     window
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
	rob window
	iq  window
	ldq window
	stq window

	// robFolded counts the folded uops in rob, which occupy no slot of
	// their own (robOccupancy).
	robFolded int

	// exec holds, in age order, the uops whose doneAt is set and that
	// have not completed: the only ROB entries complete can act on.
	exec []uopID

	// text is the program's text segment decoded once at load time,
	// one entry per word from textBase.
	text     []predecoded
	textBase uint64

	// Committed stores being drained to the D-cache; entries stay in the
	// STQ until the drain completes.
	drainBusyUntil int64

	// Sequence number of an in-flight serializing op (FENCE/CBO.FLUSH);
	// dispatch stalls until it commits. Zero when none is in flight.
	serializeSeq uint64

	// Functional units.
	alus, muls, divs, agus, brus []fuSlot

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
		alus:     make([]fuSlot, cfg.NumALU),
		muls:     make([]fuSlot, cfg.NumMul),
		divs:     make([]fuSlot, cfg.NumDiv),
		agus:     make([]fuSlot, cfg.NumAGU),
		brus:     make([]fuSlot, cfg.IssueWidth),
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
	c.fetchBuf = newWindow(cfg.FetchBufferSize)
	c.rob = newWindow(cfg.ROBEntries)
	c.iq = newWindow(cfg.ROBEntries)
	c.ldq = newWindow(cfg.LDQEntries)
	c.stq = newWindow(cfg.STQEntries)
	c.exec = make([]uopID, 0, cfg.ROBEntries)
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
			olderStore := len(c.stq.q) > 0 && c.uops[c.stq.q[0]].seq < u.seq
			if olderStore || c.cycle < c.drainBusyUntil {
				return
			}
		}
		if u.trap {
			c.fail(fmt.Errorf("sim: illegal instruction at pc %#x", u.pc))
			return
		}
		switch {
		case u.inst.IsStore():
			// The architectural write happens at commit; the D-cache
			// drain (timing) follows. The STQ entry is released once
			// the drain completes.
			c.mem.Write(u.memAddr, u.memSize, u.storeData)
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
	}
	if u.inst.IsLoad() && len(c.ldq.q) > 0 && c.ldq.q[0] == h {
		c.ldq.q = c.ldq.q[1:]
	}
	// A store keeps its uop until its drain completes (drainStores).
	if !u.inst.IsStore() {
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
	h := c.stq.q[0]
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
	c.releaseUops(h)
}

func (c *Core) isCommitted(u *uop) bool {
	return len(c.rob.q) == 0 || u.seq < c.uops[c.rob.q[0]].seq
}

// ---------------------------------------------------------------------
// Completion and branch resolution.

func (c *Core) complete() {
	kept := c.exec[:0]
	for _, h := range c.exec {
		u := &c.uops[h]
		if u.doneAt > c.cycle {
			kept = append(kept, h)
			continue
		}
		u.completed = true
		if u.inst.Class() == isa.ClassBranch && !u.resolved && c.resolveBranch(u) {
			break // squash performed; every later entry was younger and is gone
		}
	}
	c.exec = kept
}

// addExec enters h, whose doneAt has just been set, into exec at its
// age position.
func (c *Core) addExec(h uopID) {
	i := len(c.exec)
	for i > 0 && c.uops[c.exec[i-1]].seq > c.uops[h].seq {
		i--
	}
	c.exec = slices.Insert(c.exec, i, h)
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
	// Free destination registers of squashed uops, youngest first, so
	// the free list returns to its pre-allocation order. Every squashed
	// uop is in the ROB, so this also releases their handles.
	for i := len(c.rob.q) - 1; i >= 0; i-- {
		h := c.rob.q[i]
		v := &c.uops[h]
		if v.seq <= squashSeq {
			break
		}
		if v.pdst >= 32 {
			c.freeList = append(c.freeList, v.pdst)
		}
		if v.folded {
			c.robFolded--
		}
		c.releaseUops(h)
	}
	if c.serializeSeq > squashSeq {
		c.serializeSeq = 0
	}
	for _, w := range [...]*window{&c.rob, &c.iq, &c.ldq, &c.stq} {
		for len(w.q) > 0 && c.uops[w.q[len(w.q)-1]].seq > squashSeq {
			w.q = w.q[:len(w.q)-1]
		}
	}
	for _, pool := range [][]fuSlot{c.alus, c.muls, c.divs, c.agus, c.brus} {
		for i := range pool {
			if pool[i].busyUntil > c.cycle && pool[i].seq > squashSeq {
				pool[i] = fuSlot{}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Memory issue (loads accessing the D-cache, with STQ forwarding).

func (c *Core) issueMemory() {
	older := 0
	for _, h := range c.ldq.q {
		ld := &c.uops[h]
		if !ld.addrReady || ld.memIssued {
			continue
		}
		older = c.olderStores(older, ld.seq)
		st, blocked := c.olderStoreConflict(ld, c.stq.q[:older])
		if blocked {
			continue
		}
		if st != nil {
			// Store-to-load forwarding.
			shift := (ld.memAddr - st.memAddr) * 8
			raw := st.storeData >> shift
			ld.result = loadExtend(ld.inst.Op, raw)
			ld.memIssued = true
			ld.doneAt = c.cycle + 1
			if ld.pdst >= 0 {
				c.prfVal[ld.pdst] = ld.result
				c.prfReady[ld.pdst] = ld.doneAt
			}
			c.addExec(h)
			continue
		}
		done, ok := c.dc.access(c.cycle, ld.memAddr, ld.pc)
		if !ok {
			c.lsuReplays++
			continue
		}
		raw := c.mem.Read(ld.memAddr, ld.memSize)
		ld.result = loadExtend(ld.inst.Op, raw)
		ld.memIssued = true
		ld.doneAt = done
		if ld.pdst >= 0 {
			c.prfVal[ld.pdst] = ld.result
			c.prfReady[ld.pdst] = done
		}
		c.addExec(h)
	}
}

// olderStores advances an STQ cursor from i past the stores older
// than seq. The LDQ and the STQ are both age-ordered, so along the LDQ
// the cursor only moves forward.
func (c *Core) olderStores(i int, seq uint64) int {
	for i < len(c.stq.q) && c.uops[c.stq.q[i]].seq < seq {
		i++
	}
	return i
}

// olderStoreConflict scans older, the stores older than ld, from the
// youngest. It returns a forwarding source when the youngest
// overlapping one fully covers the load, or blocked=true when the load
// must wait (unknown address, partial overlap, or covering store whose
// data is not yet available).
func (c *Core) olderStoreConflict(ld *uop, older []uopID) (fwd *uop, blocked bool) {
	for i := len(older) - 1; i >= 0; i-- {
		st := &c.uops[older[i]]
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

func acquireFU(pool []fuSlot, now int64) *fuSlot {
	for i := range pool {
		if pool[i].busyUntil <= now {
			return &pool[i]
		}
	}
	return nil
}

func (c *Core) issue() {
	issued := 0
	kept := c.iq.q[:0]
	for qi, h := range c.iq.q {
		if issued >= c.cfg.IssueWidth {
			kept = append(kept, c.iq.q[qi:]...)
			break
		}
		u := &c.uops[h]
		if !c.srcReady(u.ps1) || !c.srcReady(u.ps2) || !c.tryIssue(u) {
			kept = append(kept, h)
			continue
		}
		if u.doneAt != never { // a load joins when it accesses memory
			c.addExec(h)
		}
		issued++
	}
	c.iq.q = kept
}

// tryIssue executes u functionally if a functional unit is available.
func (c *Core) tryIssue(u *uop) bool {
	v1 := c.srcVal(u.ps1)
	v2 := c.srcVal(u.ps2)
	now := c.cycle

	switch u.inst.Class() {
	case isa.ClassALU:
		// Fast bypass, late check (Section VII-B1 step 2.2): an AND
		// whose operand arrived as zero via the bypass network is
		// folded at issue — it never occupies an ALU and its dependents
		// wake immediately.
		if c.cfg.FastBypass && u.inst.Op == isa.OpAND && (v1 == 0 || v2 == 0) {
			u.folded = true
			c.robFolded++
			u.result = 0
			u.doneAt = now
			break
		}
		fu := acquireFU(c.alus, now)
		if fu == nil {
			return false
		}
		*fu = fuSlot{busyUntil: now + 1, pc: u.pc, seq: u.seq}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + 1

	case isa.ClassMul:
		fu := acquireFU(c.muls, now)
		if fu == nil {
			return false
		}
		lat := int64(c.cfg.MulLat)
		*fu = fuSlot{busyUntil: now + lat, pc: u.pc, seq: u.seq}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + lat

	case isa.ClassDiv:
		fu := acquireFU(c.divs, now)
		if fu == nil {
			return false
		}
		lat := divLatency(c.cfg, v1, v2)
		*fu = fuSlot{busyUntil: now + lat, pc: u.pc, seq: u.seq}
		u.result = execALU(u.inst, v1, v2, u.pc)
		u.doneAt = now + lat

	case isa.ClassBranch:
		fu := acquireFU(c.brus, now)
		if fu == nil {
			return false
		}
		*fu = fuSlot{busyUntil: now + 1, pc: u.pc, seq: u.seq}
		u.taken, u.target = branchOutcome(u.inst, v1, v2, u.pc)
		u.result = execALU(u.inst, v1, v2, u.pc) // link value for jal/jalr
		u.doneAt = now + 1

	case isa.ClassLoad:
		fu := acquireFU(c.agus, now)
		if fu == nil {
			return false
		}
		*fu = fuSlot{busyUntil: now + 1, pc: u.pc, seq: u.seq}
		u.memAddr = v1 + uint64(u.inst.Imm)
		u.memSize = memAccessSize(u.inst.Op)
		u.addrReady = true
		// doneAt is set by issueMemory once the access completes.
		u.issued = true
		return true

	case isa.ClassStore:
		fu := acquireFU(c.agus, now)
		if fu == nil {
			return false
		}
		*fu = fuSlot{busyUntil: now + 1, pc: u.pc, seq: u.seq}
		u.memAddr = v1 + uint64(u.inst.Imm)
		u.memSize = memAccessSize(u.inst.Op)
		u.storeData = v2
		u.addrReady = true
		u.doneAt = now + 1

	case isa.ClassSystem:
		// System ops need no functional unit; MARK and CBO carry their
		// rs1 value as the result.
		u.result = v1
		u.doneAt = now + 1
	}

	u.issued = true
	if u.pdst >= 0 && u.inst.Class() != isa.ClassLoad {
		c.prfVal[u.pdst] = u.result
		c.prfReady[u.pdst] = u.doneAt
	}
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
		if u.inst.IsLoad() && len(c.ldq.q) >= c.cfg.LDQEntries {
			return
		}
		if u.inst.IsStore() && len(c.stq.q) >= c.cfg.STQEntries {
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
		if u.inst.Class() == isa.ClassBranch {
			u.ratChk = c.rat
		}

		if u.trap {
			u.completed = true
			u.doneAt = c.cycle
			c.rob.push(h)
			c.fetchBuf.q = c.fetchBuf.q[1:]
			continue
		}

		if c.cfg.FastBypass && c.tryFastBypass(u) {
			c.rob.push(h)
			c.fetchBuf.q = c.fetchBuf.q[1:]
			continue
		}

		c.rob.push(h)
		switch u.inst.Class() {
		case isa.ClassLoad:
			c.ldq.push(h)
		case isa.ClassStore:
			c.stq.push(h)
		}
		if u.inst.Op == isa.OpFENCE || u.inst.Op == isa.OpCBOFLUSH {
			c.serializeSeq = u.seq
		}
		c.iq.push(h)
		c.fetchBuf.q = c.fetchBuf.q[1:]
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
	if u.pdst >= 0 {
		c.prfVal[u.pdst] = 0
		c.prfReady[u.pdst] = c.cycle
	}
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
		word := uint32(c.mem.Read(pc, 4))
		inst, ok := c.decode(pc, word)
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
func (c *Core) decode(pc uint64, word uint32) (isa.Inst, bool) {
	if off := pc - c.textBase; off%4 == 0 && off/4 < uint64(len(c.text)) {
		if e := &c.text[off/4]; e.word == word {
			return e.inst, e.ok
		}
	}
	inst, err := isa.Decode(word)
	return inst, err == nil
}
