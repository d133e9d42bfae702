package sim

import "testing"

// ---------------------------------------------------------------------
// TAGE predictor

func TestTAGEBaseBimodalTrains(t *testing.T) {
	tg := newTAGE(256)
	pc := uint64(0x1000)
	if taken, _ := tg.predict(pc); taken {
		t.Error("fresh TAGE should predict not-taken")
	}
	// With no history changes the base provides; two taken outcomes
	// saturate its 2-bit counter toward taken.
	tg.train(0, pc, 0, true)
	tg.train(0, pc, 0, true)
	// The first mispredicted train also allocated a tagged entry for
	// history 0; both the base and the tagged provider now agree.
	if taken, _ := tg.predict(pc); !taken {
		t.Error("trained TAGE should predict taken")
	}
}

// TestTAGEAllocationAndPromotion walks the allocate-on-mispredict
// cascade: each misprediction allocates into the shortest longer-history
// table, and the provider is always the longest matching table.
func TestTAGEAllocationAndPromotion(t *testing.T) {
	tg := newTAGE(256)
	pc := uint64(0x2000)
	hist := uint64(0xABCDE)

	if prov, _, _, _ := tg.lookup(pc, hist); prov != -1 {
		t.Fatalf("fresh lookup provider = %d want base (-1)", prov)
	}
	// Base predicts not-taken; a taken outcome mispredicts and allocates
	// into table 0.
	tg.train(0, pc, hist, true)
	prov, idx, taken, _ := tg.lookup(pc, hist)
	if prov != 0 {
		t.Fatalf("after first mispredict provider = %d want 0", prov)
	}
	if !taken {
		t.Error("allocated entry should start weakly toward the outcome")
	}
	if got := tg.tables[0].entries[idx].tag; got != tg.tables[0].tagOf(pc, hist) {
		t.Errorf("allocated tag = %#x want %#x", got, tg.tables[0].tagOf(pc, hist))
	}

	// The table-0 provider now mispredicts a not-taken outcome: the next
	// allocation must land one table higher, and become the provider.
	tg.train(0, pc, hist, false)
	prov, _, taken, _ = tg.lookup(pc, hist)
	if prov != 1 {
		t.Fatalf("after second mispredict provider = %d want 1", prov)
	}
	if taken {
		t.Error("promoted provider should predict the newer outcome (not-taken)")
	}
}

// TestTAGEProviderSelection checks longest-match wins when several
// tables hold entries for the same (pc, history).
func TestTAGEProviderSelection(t *testing.T) {
	tg := newTAGE(256)
	pc := uint64(0x3000)
	hist := uint64(0x5A5A5)
	// Force entries into every table by alternating outcomes: each flip
	// mispredicts the current provider and allocates the next table up.
	outcome := true
	for i := 0; i < tageNumTables; i++ {
		tg.train(0, pc, hist, outcome)
		outcome = !outcome
	}
	prov, _, _, _ := tg.lookup(pc, hist)
	if prov != tageNumTables-1 {
		t.Fatalf("provider = %d want longest table %d", prov, tageNumTables-1)
	}
}

func TestTAGEUsefulBitGuardsEntry(t *testing.T) {
	tg := newTAGE(256)
	pc := uint64(0x4000)
	hist := uint64(0x1F)
	// Push the base counter firmly not-taken so the alternate stays
	// opposed to the tagged provider throughout.
	tg.train(0, pc, hist, false)
	tg.train(0, pc, hist, true) // base mispredicts: allocate in table 0, weakly taken
	_, idx, _, _ := tg.lookup(pc, hist)
	// Provider (taken) disagrees with the base alternate (not-taken) and
	// is correct: its useful counter must rise.
	tg.train(0, pc, hist, true)
	if u := tg.tables[0].entries[idx].u; u != 1 {
		t.Fatalf("useful counter = %d want 1", u)
	}
	// A wrong prediction that beats no alternate decays usefulness.
	tg.train(0, pc, hist, false)
	if u := tg.tables[0].entries[idx].u; u != 0 {
		t.Fatalf("useful counter after mispredict = %d want 0", u)
	}
}

// TestTAGELearnsBeyondGshareHistory is the leakage surface in predictor
// form: two history contexts identical in gshare's 12-bit window but
// different at depth 21 alias in gshare yet train distinct TAGE entries,
// so only TAGE predicts both contexts correctly — and conversely, a
// secret at that depth becomes observable TAGE state.
func TestTAGELearnsBeyondGshareHistory(t *testing.T) {
	pc := uint64(0x5000)
	h0 := uint64(0x00000FFF) // low 12 bits all ones
	h1 := h0 | 1<<20         // differs only at depth 21

	g := newGshare(2048)
	if ((pc>>2)^h0)&g.mask != ((pc>>2)^h1)&g.mask {
		t.Fatal("test premise broken: gshare must alias h0 and h1")
	}

	tg := newTAGE(2048)
	// Outcome is the deep history bit: taken under h0, not-taken under h1.
	for i := 0; i < 20; i++ {
		tg.train(0, pc, h0, true)
		tg.train(0, pc, h1, false)
	}
	_, _, taken0, _ := tg.lookup(pc, h0)
	_, _, taken1, _ := tg.lookup(pc, h1)
	if !taken0 || taken1 {
		t.Fatalf("TAGE failed to separate deep-history contexts: h0→%v h1→%v", taken0, taken1)
	}
	prov0, idx0, _, _ := tg.lookup(pc, h0)
	prov1, idx1, _, _ := tg.lookup(pc, h1)
	if prov0 < 2 || prov1 < 2 {
		t.Errorf("providers %d,%d should be long-history tables (>=2)", prov0, prov1)
	}
	if prov0 == prov1 && idx0 == idx1 {
		t.Error("deep-history contexts must occupy distinct provider entries")
	}
}

func TestTAGEPredictionMeta(t *testing.T) {
	tg := newTAGE(256)
	pc := uint64(0x6000)
	taken, meta := tg.predict(pc)
	if taken {
		t.Error("fresh TAGE should predict not-taken")
	}
	if meta&(1<<48) == 0 {
		t.Fatalf("meta cookie missing marker bit: %#x", meta)
	}
	if prov := (meta >> 32) & 0xFFFF; prov != 0 {
		t.Errorf("fresh provider field = %d want 0 (base)", prov)
	}
	if meta&1 != 0 {
		t.Error("direction bit should be clear for a not-taken prediction")
	}
	// Allocate a tagged entry for the live history: the cookie's provider
	// field and entry index must change with it.
	tg.train(0, pc, tg.history, true)
	taken, meta2 := tg.predict(pc)
	if !taken {
		t.Error("allocated entry should predict taken")
	}
	if prov := (meta2 >> 32) & 0xFFFF; prov != 1 {
		t.Errorf("provider field = %d want 1 (table 0)", prov)
	}
	if meta2&1 != 1 {
		t.Error("direction bit should be set for a taken prediction")
	}
	if meta2 == meta {
		t.Error("metadata must distinguish base and tagged providers")
	}
}

func TestTAGEHistoryCheckpoint(t *testing.T) {
	tg := newTAGE(256)
	chk := tg.shiftHistory(true)
	tg.shiftHistory(false)
	tg.shiftHistory(true)
	tg.restoreHistory(chk, false)
	want := (chk << 1) & tg.histMask
	if tg.history != want {
		t.Errorf("history = %#x want %#x", tg.history, want)
	}
}

func TestTAGECoreSelection(t *testing.T) {
	cfg := MegaBoom()
	c := newCore(cfg, NewMemory())
	if c.tg != nil {
		t.Error("gshare config must not expose a TAGE ring")
	}
	if _, ok := c.bp.(*gshare); !ok {
		t.Error("default predictor must be gshare")
	}
	cfg.TAGEPredictor = true
	c = newCore(cfg, NewMemory())
	if c.tg == nil {
		t.Fatal("TAGE config must expose the ring alias")
	}
	if c.bp != branchPredictor(c.tg) {
		t.Error("bp and tg must be the same predictor")
	}
}
