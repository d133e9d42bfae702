package sim

import (
	"math"

	"microsampler/internal/isa"
)

const never = math.MaxInt64

// uop is a micro-op in flight: one decoded instruction plus all of its
// renaming, prediction and execution state.
type uop struct {
	seq  uint64
	pc   uint64
	inst isa.Inst

	// Decode trap (illegal instruction on this path).
	trap bool

	// Branch prediction state captured at fetch.
	predTaken  bool
	predTarget uint64
	phtIdx     uint64
	histChk    uint64

	// Rename state.
	pdst   int16 // physical destination (-1: none)
	ps1    int16
	ps2    int16
	stale  int16     // previous mapping of rd, freed at commit
	ratChk [32]int16 // RAT checkpoint (branches only)

	// Execution state.
	issued    bool
	resolved  bool // branches: outcome processed
	completed bool
	doneAt    int64
	result    uint64

	// Memory state.
	addrReady bool
	memIssued bool
	memAddr   uint64
	memSize   int
	storeData uint64

	// Fast-bypass folding (shares a ROB slot with its neighbour).
	folded bool

	// Branch outcome.
	taken  bool
	target uint64
}

// uopID is a handle to a uop in its core's arena.
type uopID int32

// newUop takes a handle off the free list and initialises its uop.
func (c *Core) newUop(pc uint64, inst isa.Inst) uopID {
	h := c.freeUops[len(c.freeUops)-1]
	c.freeUops = c.freeUops[:len(c.freeUops)-1]
	c.seq++
	// Zeroing in place and then setting fields avoids building a
	// composite literal on the stack and copying it into the slot.
	u := &c.uops[h]
	*u = uop{}
	u.seq, u.pc, u.inst, u.doneAt = c.seq, pc, inst, never
	u.pdst, u.ps1, u.ps2, u.stale = -1, -1, -1, -1
	return h
}

// releaseUops returns handles to the free list.
func (c *Core) releaseUops(hs ...uopID) { c.freeUops = append(c.freeUops, hs...) }

// window is a fixed-capacity, age-ordered queue of uop handles. q is
// the live part of one backing array allocated with the core: popping
// the head advances q, and a push that reaches the end of the array
// first slides the live handles back to its start, so neither
// allocates.
type window struct {
	q    []uopID
	base []uopID
}

func newWindow(capacity int) window {
	base := make([]uopID, 2*max(capacity, 1))
	return window{q: base[:0], base: base}
}

func (w *window) push(h uopID) {
	if len(w.q) == cap(w.q) {
		w.q = w.base[:copy(w.base, w.q)]
	}
	w.q = append(w.q, h)
}

// memAccessSize returns the access width in bytes for a load or store.
func memAccessSize(op isa.Op) int {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLW, isa.OpLWU, isa.OpSW:
		return 4
	default:
		return 8
	}
}
