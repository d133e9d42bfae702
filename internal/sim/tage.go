package sim

import "math/bits"

// branchPredictor abstracts the direction predictor so the core can run
// either the default gshare or the TAGE model. predict returns the
// predicted direction plus an opaque cookie that rides in the uop:
// gshare's PHT index, or TAGE's packed prediction metadata — which the
// TAGE-PRED trace unit samples for every conditional branch in flight.
// resolveBranch hands the cookie back to train together with the
// branch's PC and checkpointed history, from which TAGE recomputes its
// table indices.
type branchPredictor interface {
	predict(pc uint64) (taken bool, idx uint64)
	shiftHistory(taken bool) uint64
	restoreHistory(checkpoint uint64, actual bool)
	train(idx, pc, hist uint64, taken bool)
}

// TAGE geometry. Four tagged tables with geometrically increasing
// history lengths sit beside a bimodal base table; the longest history
// (44 bits) fits the uint64 checkpoint the core already carries per
// branch. Each tagged table holds BranchPredEnts/tageTableDivisor
// entries.
const (
	tageNumTables    = 4
	tageTableDivisor = 4
	tageTagBits      = 9
	tageCtrMax       = 3 // signed 3-bit counter range [-4, 3]
	tageCtrMin       = -4
	tageUMax         = 3 // 2-bit useful counter
)

// tageHistLens are the per-table global history lengths, shortest first.
var tageHistLens = [tageNumTables]uint{4, 10, 21, 44}

// tageEntry is one tagged-table slot.
type tageEntry struct {
	ctr int8 // prediction counter, taken when >= 0
	tag uint16
	u   uint8 // useful counter, guards the entry against reallocation
}

type tageTable struct {
	entries  []tageEntry
	mask     uint64
	idxBits  uint // width of mask
	histMask uint64
}

// tage is a TAGE (TAgged GEometric history length) branch predictor: a
// bimodal base predictor plus tagged tables indexed by hashes of the PC
// and geometrically longer slices of global history. The prediction
// provider is the longest-history table whose tag matches; entries are
// allocated into longer tables on mispredictions. Unlike gshare's
// 12-bit window, the long tables correlate a branch with outcomes tens
// of branches in the past — state the TAGE-PRED trace unit exposes via
// the packed prediction metadata each in-flight branch carries.
type tage struct {
	base     []uint8 // 2-bit bimodal counters
	baseMask uint64

	tables [tageNumTables]tageTable

	branchHistory
}

func newTAGE(phtEntries int) *tage {
	t := &tage{
		base:          make([]uint8, phtEntries),
		baseMask:      uint64(phtEntries - 1),
		branchHistory: branchHistory{histMask: 1<<tageHistLens[tageNumTables-1] - 1},
	}
	for i := range t.base {
		t.base[i] = 1 // weakly not-taken, matching gshare's reset state
	}
	n := phtEntries / tageTableDivisor
	for i := range t.tables {
		t.tables[i] = tageTable{
			entries:  make([]tageEntry, n),
			mask:     uint64(n - 1),
			idxBits:  uint(bits.Len64(uint64(n - 1))),
			histMask: 1<<tageHistLens[i] - 1,
		}
	}
	return t
}

// fold XOR-folds h down to the given bit width.
func fold(h uint64, bits uint) uint64 {
	mask := uint64(1)<<bits - 1
	f := uint64(0)
	for h != 0 {
		f ^= h & mask
		h >>= bits
	}
	return f
}

// index hashes (pc, history slice) into the table.
func (tt *tageTable) index(pc, hist uint64) uint64 {
	return ((pc >> 2) ^ fold(hist&tt.histMask, tt.idxBits)) & tt.mask
}

// tagOf hashes (pc, history slice) into a tag, using a fold width
// decorrelated from the index fold.
func (tt *tageTable) tagOf(pc, hist uint64) uint16 {
	h := fold(hist&tt.histMask, tageTagBits-1)
	return uint16(((pc >> 2) ^ (pc >> (2 + tageTagBits)) ^ (h << 1)) & (1<<tageTagBits - 1))
}

// lookup finds the provider (longest-history tag match) and the
// alternate prediction for pc under hist. provider is -1 when the base
// table provides.
func (t *tage) lookup(pc, hist uint64) (provider int, providerIdx uint64, taken, altTaken bool) {
	provider = -1
	baseTaken := t.base[(pc>>2)&t.baseMask] >= 2
	taken, altTaken = baseTaken, baseTaken
	for i := tageNumTables - 1; i >= 0; i-- {
		tt := &t.tables[i]
		idx := tt.index(pc, hist)
		if tt.entries[idx].tag != tt.tagOf(pc, hist) {
			continue
		}
		if provider < 0 {
			provider = i
			providerIdx = idx
			taken = tt.entries[idx].ctr >= 0
		} else {
			// First match below the provider: nothing more to learn.
			break
		}
		// Find the alternate in the shorter tables (or fall back to base).
		altTaken = baseTaken
		for j := i - 1; j >= 0; j-- {
			at := &t.tables[j]
			aidx := at.index(pc, hist)
			if at.entries[aidx].tag == at.tagOf(pc, hist) {
				altTaken = at.entries[aidx].ctr >= 0
				break
			}
		}
		break
	}
	return provider, providerIdx, taken, altTaken
}

// packMeta packs one prediction's provider metadata: a
// guaranteed-nonzero marker bit, the provider table (0 = base), the
// provider entry index, and the predicted direction. The entry index is
// a hash of the PC and the provider's history slice, so for a branch at
// a fixed PC it is the secret-history window made visible. Like BOOM's
// fetch-target-queue payload, the packed word travels with the branch
// from fetch to commit; the TAGE-PRED trace unit samples it for every
// conditional branch still in the ROB.
func packMeta(provider int, idx uint64, taken bool) uint64 {
	v := uint64(1)<<48 | uint64(provider+1)<<32 | idx<<1
	if taken {
		v |= 1
	}
	return v
}

// predict returns the predicted direction plus the packed prediction
// metadata as the cookie. train ignores the cookie — TAGE recomputes
// everything from pc and the checkpointed history — but the uop keeps
// it in flight for the TAGE-PRED unit to observe.
func (t *tage) predict(pc uint64) (bool, uint64) {
	provider, idx, taken, _ := t.lookup(pc, t.history)
	if provider < 0 {
		idx = (pc >> 2) & t.baseMask
	}
	return taken, packMeta(provider, idx, taken)
}

// train updates the predictor for a resolved branch. TAGE recomputes the
// provider from (pc, hist) — the fetch-time checkpoint — rather than
// carrying per-prediction metadata through the pipeline: the counter
// update lands on the provider, the useful bit records whether the
// provider beat its alternate, and a misprediction allocates a fresh
// entry in a longer-history table whose victim slot is not useful.
func (t *tage) train(_ /* cookie */, pc, hist uint64, taken bool) {
	provider, providerIdx, predTaken, altTaken := t.lookup(pc, hist)

	if provider < 0 {
		i := (pc >> 2) & t.baseMask
		t.base[i] = saturate(t.base[i], taken, 0, 3)
	} else {
		e := &t.tables[provider].entries[providerIdx]
		e.ctr = saturate(e.ctr, taken, tageCtrMin, tageCtrMax)
		if predTaken != altTaken {
			e.u = saturate(e.u, predTaken == taken, 0, tageUMax)
		}
	}

	if predTaken == taken || provider == tageNumTables-1 {
		return
	}
	// Misprediction with room above the provider: allocate in the
	// shortest longer-history table holding a non-useful victim; when
	// every candidate is useful, age them all instead.
	allocated := false
	for i := provider + 1; i < tageNumTables; i++ {
		tt := &t.tables[i]
		idx := tt.index(pc, hist)
		if tt.entries[idx].u == 0 {
			ctr := int8(0) // weakly taken
			if !taken {
				ctr = -1 // weakly not-taken
			}
			tt.entries[idx] = tageEntry{ctr: ctr, tag: tt.tagOf(pc, hist)}
			allocated = true
			break
		}
	}
	if !allocated {
		for i := provider + 1; i < tageNumTables; i++ {
			tt := &t.tables[i]
			e := &tt.entries[tt.index(pc, hist)]
			e.u = saturate(e.u, false, 0, tageUMax)
		}
	}
}
