package sim

// targets is the front end's target state, shared by both direction
// predictors: a direct-mapped BTB for indirect targets and a
// return-address stack (speculatively updated at fetch, no
// checkpointing — wrong-path pushes/pops corrupt it occasionally, as in
// simple hardware RAS implementations).
type targets struct {
	btbTags    []uint64
	btbTargets []uint64
	btbMask    uint64

	ras    [rasEntries]uint64
	rasTop int
}

const rasEntries = 8

func newTargets(btbEntries int) *targets {
	return &targets{
		btbTags:    make([]uint64, btbEntries),
		btbTargets: make([]uint64, btbEntries),
		btbMask:    uint64(btbEntries - 1),
	}
}

// btbLookup returns the last observed target for an indirect branch.
func (t *targets) btbLookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) & t.btbMask
	if t.btbTags[i] == pc {
		return t.btbTargets[i], true
	}
	return 0, false
}

// btbUpdate records the actual target of an indirect branch.
func (t *targets) btbUpdate(pc, target uint64) {
	i := (pc >> 2) & t.btbMask
	t.btbTags[i] = pc
	t.btbTargets[i] = target
}

// rasPush records a call's return address.
func (t *targets) rasPush(retAddr uint64) {
	t.rasTop = (t.rasTop + 1) % rasEntries
	t.ras[t.rasTop] = retAddr
}

// rasPop predicts a return target.
func (t *targets) rasPop() (uint64, bool) {
	v := t.ras[t.rasTop]
	if v == 0 {
		return 0, false
	}
	t.ras[t.rasTop] = 0
	t.rasTop = (t.rasTop - 1 + rasEntries) % rasEntries
	return v, true
}

// branchHistory is a global branch-history register, youngest outcome
// in the LSB, kept to the bits of histMask.
type branchHistory struct {
	history, histMask uint64
}

// shiftHistory speculatively pushes a predicted direction into the
// global history; it returns the previous history for checkpointing.
func (h *branchHistory) shiftHistory(taken bool) uint64 {
	prev := h.history
	h.history = (h.history << 1) & h.histMask
	if taken {
		h.history |= 1
	}
	return prev
}

// restoreHistory rewinds the global history to a checkpoint (taken on a
// mispredicted branch) and then pushes the actual outcome.
func (h *branchHistory) restoreHistory(checkpoint uint64, actual bool) {
	h.history = checkpoint
	h.shiftHistory(actual)
}

// saturate steps a saturating counter by one within [lo, hi]: up when
// up is set, down otherwise.
func saturate[T int8 | uint8](c T, up bool, lo, hi T) T {
	switch {
	case up && c < hi:
		return c + 1
	case !up && c > lo:
		return c - 1
	}
	return c
}

// gshare is a global-history XOR-indexed pattern history table of 2-bit
// saturating counters.
type gshare struct {
	pht  []uint8 // 2-bit counters, initialised weakly not-taken
	mask uint64
	branchHistory
}

func newGshare(phtEntries int) *gshare {
	g := &gshare{
		pht:           make([]uint8, phtEntries),
		mask:          uint64(phtEntries - 1),
		branchHistory: branchHistory{histMask: 1<<12 - 1},
	}
	for i := range g.pht {
		g.pht[i] = 1 // weakly not-taken
	}
	return g
}

func (g *gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// predict returns the predicted direction for the conditional branch at
// pc and the PHT index used (so the resolver can train the same entry).
func (g *gshare) predict(pc uint64) (taken bool, idx uint64) {
	idx = g.index(pc)
	return g.pht[idx] >= 2, idx
}

// train updates the 2-bit counter that produced a prediction. The pc and
// checkpointed history carried for TAGE's sake are unused: gshare already
// folded them into idx at predict time.
func (g *gshare) train(idx, _, _ uint64, taken bool) {
	g.pht[idx] = saturate(g.pht[idx], taken, 0, 3)
}
