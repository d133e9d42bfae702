package sim

import (
	"math"

	"microsampler/internal/isa"
)

const never = math.MaxInt64

// uop is a micro-op in flight: one decoded instruction plus all of its
// renaming, prediction and execution state.
type uop struct {
	// The fields most stages read come first, to share cache lines.
	seq  uint64
	pc   uint64
	inst isa.Inst

	// Rename state.
	pdst  int16 // physical destination (-1: none)
	ps1   int16
	ps2   int16
	stale int16 // previous mapping of rd, freed at commit

	// Status flags.
	trap      bool // decode trap (illegal instruction on this path)
	issued    bool
	resolved  bool // branches: outcome processed
	completed bool
	addrReady bool
	memIssued bool
	folded    bool // fast-bypass folding (shares a ROB slot with its neighbour)

	// Scheduling state: pending counts the sources whose producer has
	// not yet set its ready cycle, next links the uop into the wait list
	// of each such source (by source slot); readyAt is the latest ready
	// cycle among the sources.
	pending int8
	next    [2]uopID
	readyAt int64

	// Execution state.
	doneAt int64
	result uint64

	// Memory state. blockedAt is the core's storeChanges plus one when
	// an older store last blocked the load (0: never).
	memAddr   uint64
	storeData uint64
	blockedAt uint64
	memSize   uint8

	// class is inst.Class(), looked up once when the uop is made.
	class isa.Class

	// Branch prediction state captured at fetch, and the outcome.
	predTaken  bool
	taken      bool
	predTarget uint64
	phtIdx     uint64
	histChk    uint64
	target     uint64

	ratChk [32]int16 // RAT checkpoint (branches only)
}

// uopID is a handle to a uop in its core's arena.
type uopID int32

// uopRef names a uop by handle and seq. The age-ordered lists hold
// refs, so they order by age without reading the uops.
type uopRef struct {
	h   uopID
	seq uint64
}

// newUop takes a handle off the free list and initialises its uop.
func (c *Core) newUop(pc uint64, inst isa.Inst) uopID {
	h := c.freeUops[len(c.freeUops)-1]
	c.freeUops = c.freeUops[:len(c.freeUops)-1]
	c.seq++
	// Zeroing in place and then setting fields avoids building a
	// composite literal on the stack and copying it into the slot.
	u := &c.uops[h]
	*u = uop{}
	u.seq, u.pc, u.inst, u.class, u.doneAt = c.seq, pc, inst, inst.Class(), never
	u.pdst, u.ps1, u.ps2, u.stale = -1, -1, -1, -1
	return h
}

// releaseUops returns handles to the free list.
func (c *Core) releaseUops(hs ...uopID) { c.freeUops = append(c.freeUops, hs...) }

// window is a fixed-capacity, age-ordered queue (of uop handles, or of
// the ROB's PCs). q is the live part of one backing array allocated
// with the core: popping the head advances q, and a push that reaches
// the end of the array first slides the live entries back to its
// start, so neither allocates.
type window[T any] struct {
	q    []T
	base []T
}

func newWindow[T any](capacity int) window[T] {
	base := make([]T, 2*max(capacity, 1))
	return window[T]{q: base[:0], base: base}
}

func (w *window[T]) push(h T) {
	if len(w.q) == cap(w.q) {
		w.q = w.base[:copy(w.base, w.q)]
	}
	w.q = append(w.q, h)
}

// memAccessSize returns the access width in bytes for a load or store.
func memAccessSize(op isa.Op) uint8 {
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
