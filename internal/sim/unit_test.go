package sim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"microsampler/internal/asm"
)

// ---------------------------------------------------------------------
// uop

// TestUopSize pins the uop at 216 bytes: every stage reads uops out of
// the arena, and the cached class sits in padding the layout had.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(uop{}); got != 216 {
		t.Errorf("uop is %d bytes, want 216", got)
	}
}

// ---------------------------------------------------------------------
// gshare / BTB / RAS

func TestGsharePredictorTrains(t *testing.T) {
	g := newGshare(256)
	pc := uint64(0x1000)
	// Initially weakly not-taken.
	if taken, _ := g.predict(pc); taken {
		t.Error("fresh predictor should predict not-taken")
	}
	// Two taken outcomes saturate toward taken.
	for i := 0; i < 2; i++ {
		_, idx := g.predict(pc)
		g.train(idx, 0, 0, true)
	}
	if taken, _ := g.predict(pc); !taken {
		t.Error("trained predictor should predict taken")
	}
	// Counters saturate: many more taken outcomes, then two not-taken
	// flips it back.
	for i := 0; i < 10; i++ {
		_, idx := g.predict(pc)
		g.train(idx, 0, 0, true)
	}
	_, idx := g.predict(pc)
	g.train(idx, 0, 0, false)
	if taken, _ := g.predict(pc); !taken {
		t.Error("single not-taken must not flip a saturated counter")
	}
	g.train(idx, 0, 0, false)
	if taken, _ := g.predict(pc); taken {
		t.Error("two not-taken outcomes should flip the counter")
	}
}

func TestGshareHistoryCheckpoint(t *testing.T) {
	g := newGshare(256)
	chk := g.shiftHistory(true)
	g.shiftHistory(false)
	g.shiftHistory(true)
	g.restoreHistory(chk, false)
	// After restore+actual(false), history = (chk<<1)|0.
	want := (chk << 1) & g.histMask
	if g.history != want {
		t.Errorf("history = %b want %b", g.history, want)
	}
}

func TestGshareHistoryAffectsIndex(t *testing.T) {
	g := newGshare(256)
	_, idx1 := g.predict(0x1000)
	g.shiftHistory(true)
	_, idx2 := g.predict(0x1000)
	if idx1 == idx2 {
		t.Error("different global history should index different PHT entries")
	}
}

func TestBTB(t *testing.T) {
	g := newTargets(16)
	if _, ok := g.btbLookup(0x2000); ok {
		t.Error("empty BTB should miss")
	}
	g.btbUpdate(0x2000, 0x8000)
	if target, ok := g.btbLookup(0x2000); !ok || target != 0x8000 {
		t.Errorf("BTB lookup = %#x,%v", target, ok)
	}
	// Aliasing entry replaces.
	g.btbUpdate(0x2000, 0x9000)
	if target, _ := g.btbLookup(0x2000); target != 0x9000 {
		t.Error("BTB should hold the latest target")
	}
}

func TestRAS(t *testing.T) {
	g := newTargets(16)
	if _, ok := g.rasPop(); ok {
		t.Error("empty RAS should miss")
	}
	g.rasPush(0x100)
	g.rasPush(0x200)
	if tgt, ok := g.rasPop(); !ok || tgt != 0x200 {
		t.Errorf("rasPop = %#x,%v want 0x200", tgt, ok)
	}
	if tgt, ok := g.rasPop(); !ok || tgt != 0x100 {
		t.Errorf("rasPop = %#x,%v want 0x100", tgt, ok)
	}
	if _, ok := g.rasPop(); ok {
		t.Error("RAS should now be empty")
	}
	// Overflow wraps (circular): deep call chains lose the oldest.
	for i := 1; i <= rasEntries+2; i++ {
		g.rasPush(uint64(i) * 16)
	}
	if tgt, ok := g.rasPop(); !ok || tgt != uint64(rasEntries+2)*16 {
		t.Errorf("after overflow, top = %#x", tgt)
	}
}

// ---------------------------------------------------------------------
// cache / TLB models

func TestCacheLRU(t *testing.T) {
	c := newCache(2, 2, 64) // 2 sets, 2 ways
	now := int64(0)
	// Lines 0, 2, 4 map to set 0 (even line numbers).
	c.fill(0, now, pfNone)
	c.fill(2, now+1, pfNone)
	if !c.present(0) || !c.present(2) {
		t.Fatal("both ways should be filled")
	}
	c.lookup(0, now+2)       // refresh line 0
	c.fill(4, now+3, pfNone) // evicts LRU = line 2
	if !c.present(0) || c.present(2) || !c.present(4) {
		t.Error("LRU eviction selected the wrong victim")
	}
	c.invalidate(4)
	if c.present(4) {
		t.Error("invalidate failed")
	}
}

func TestTLBLRUAndRecency(t *testing.T) {
	tl := newTLB(2)
	tl.insert(10, 0)
	tl.insert(20, 1)
	if !tl.lookup(10, 2) {
		t.Fatal("page 10 should hit")
	}
	tl.insert(30, 3) // evicts page 20 (LRU)
	if tl.lookup(20, 4) {
		t.Error("page 20 should have been evicted")
	}
	order := append([]tlbEntry(nil), tl.recencyScratch()...)
	if len(order) != 2 || order[0].page != 30 || order[1].page != 10 {
		t.Errorf("recency order wrong: %+v", order)
	}
}

func TestDCacheMissAndFill(t *testing.T) {
	cfg := MegaBoom()
	mem := NewMemory()
	mem.Write(0x1000, 8, 0xABCD)
	d := newDCache(cfg, mem)

	d.tick(0)
	done, ok := d.access(0, 0x1000, 0x4)
	if !ok {
		t.Fatal("first access rejected")
	}
	if done < int64(cfg.MissLat) {
		t.Errorf("miss completed too fast: %d", done)
	}
	// The miss should occupy an MSHR and an LFB entry with the data.
	if m, src := d.inFlight(d.lineOf(0x1000)); m == nil || src != pfNone {
		t.Error("no MSHR allocated")
	}
	var lfbData uint64
	for _, e := range d.lfb {
		if e.valid && e.lineAddr == d.lineOf(0x1000) {
			lfbData = e.data
		}
	}
	if lfbData != 0xABCD {
		t.Errorf("LFB data = %#x want 0xABCD", lfbData)
	}
	// After the fill completes, the line hits.
	d.tick(done + 1)
	hit, ok := d.access(done+1, 0x1000, 0x4)
	if !ok || hit > done+1+int64(cfg.DCacheHitLat)+int64(cfg.TLBMissLat) {
		t.Errorf("post-fill access not a hit: done=%d", hit)
	}
}

func TestDCacheMSHRMerge(t *testing.T) {
	cfg := MegaBoom()
	d := newDCache(cfg, NewMemory())
	d.tick(0)
	d1, _ := d.access(0, 0x2000, 0)
	d2, ok := d.access(0, 0x2008, 0) // same line: merge
	if !ok {
		t.Fatal("merge rejected")
	}
	if d2 > d1+2 {
		t.Errorf("merged access should complete with the fill: %d vs %d", d2, d1)
	}
	used := 0
	for _, m := range d.trackers[pfNone].slots {
		if m.valid {
			used++
		}
	}
	if used != 1 {
		t.Errorf("MSHRs used = %d want 1", used)
	}
}

func TestDCacheMSHRExhaustion(t *testing.T) {
	cfg := MegaBoom()
	cfg.MSHREntries = 2
	d := newDCache(cfg, NewMemory())
	d.tick(0)
	if _, ok := d.access(0, 0x10000, 0); !ok {
		t.Fatal("miss 1 rejected")
	}
	if _, ok := d.access(0, 0x20000, 0); !ok {
		t.Fatal("miss 2 rejected")
	}
	if _, ok := d.access(0, 0x30000, 0); ok {
		t.Error("third concurrent miss should be rejected (MSHRs full)")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := MegaBoom()
	d := newDCache(cfg, NewMemory())
	d.tick(0)
	d.access(0, 0x4000, 0)
	found := false
	for _, m := range d.trackers[pfNLP].slots {
		if m.valid && m.lineAddr == d.lineOf(0x4000)+1 {
			found = true
		}
	}
	if !found {
		t.Fatal("next-line prefetch not issued")
	}
	// After the prefetch fill, the next line hits directly.
	d.tick(int64(cfg.MissLat) + 1)
	done, ok := d.access(int64(cfg.MissLat)+1, 0x4040, 0)
	if !ok || done > int64(cfg.MissLat)+1+int64(cfg.DCacheHitLat)+int64(cfg.TLBMissLat) {
		t.Errorf("prefetched line should hit, done=%d", done)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	f := func(addr uint64, val uint64, sizeSel uint8) bool {
		addr %= 1 << 40
		sizes := []int{1, 2, 4, 8}
		size := sizes[int(sizeSel)%4]
		m := NewMemory()
		m.Write(addr, size, val)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return m.Read(addr, size) == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageBytes - 3)
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if got := m.Read(pageBytes, 4); got != 0x11223344&0xFFFFFFFF && got == 0 {
		t.Error("second page bytes missing")
	}
}

// ---------------------------------------------------------------------
// structural backpressure: the pipeline must stay correct when every
// queue fills.

func tinyConfig() Config {
	c := SmallBoom()
	c.ROBEntries = 8
	c.LDQEntries = 2
	c.STQEntries = 2
	c.IntPRF = 64 + 4 // barely any rename headroom
	c.FetchBufferSize = 4
	c.MSHREntries = 1
	c.LFBEntries = 1
	return c
}

func TestBackpressureCorrectness(t *testing.T) {
	// A store/load/arith-heavy loop must compute correctly even when
	// the ROB, LSQ, PRF and MSHRs are all tiny.
	_, res := runSrc(t, tinyConfig(), `
	.data
buf: .zero 8192
	.text
_start:
	la  s2, buf
	li  s3, 100
	li  s4, 0
loop:
	andi t0, s3, 63
	slli t0, t0, 6        # spread over lines: misses under 1 MSHR
	add  t0, t0, s2
	sd   s3, 0(t0)
	ld   t1, 0(t0)
	add  s4, s4, t1
	mul  t2, t1, t1
	add  s4, s4, t2
	addi s3, s3, -1
	bnez s3, loop
	mv   a0, s4
	li   t0, 0xFFFFF
	and  a0, a0, t0
	j    exit
`+exitStub)
	want := uint64(0)
	for i := uint64(100); i >= 1; i-- {
		want += i + i*i
	}
	want &= 0xFFFFF
	if res.ExitCode != want {
		t.Errorf("backpressure run = %d want %d", res.ExitCode, want)
	}
}

// TestUopHandlesConserved checks the arena's bookkeeping every cycle:
// each handle is either free or held by exactly one in-flight uop — in
// the fetch buffer, the ROB, or the committed tail of the STQ — through
// commits, drains, squashes and fetch-buffer flushes, on full-size and
// tiny windows alike.
func TestUopHandlesConserved(t *testing.T) {
	prog, err := asm.Assemble(benchProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{MegaBoom(), tinyConfig()} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		c := m.core
		for !c.halted {
			c.step()
			held := len(c.fetchBuf.q) + len(c.rob.q)
			for _, r := range c.stq.q {
				if c.isCommitted(&c.uops[r.h]) {
					held++
				}
			}
			if held+len(c.freeUops) != len(c.uops) {
				t.Fatalf("%s cycle %d: %d handles held, %d free, arena of %d",
					cfg.Name, c.cycle, held, len(c.freeUops), len(c.uops))
			}
		}
		if c.runErr != nil || c.mispredicts == 0 {
			t.Fatalf("%s: run error %v after %d mispredicts", cfg.Name, c.runErr, c.mispredicts)
		}
	}
}

func TestPRFExhaustionStallsButCompletes(t *testing.T) {
	cfg := SmallBoom()
	cfg.IntPRF = 64 + 2 // almost no free physical registers
	_, res := runSrc(t, cfg, `
_start:
	li  t0, 50
	li  a0, 0
loop:
	addi a0, a0, 3
	addi t0, t0, -1
	bnez t0, loop
	j exit
`+exitStub)
	if res.ExitCode != 150 {
		t.Errorf("exit = %d want 150", res.ExitCode)
	}
}

func TestStoreLoadForwardingPartialOverlap(t *testing.T) {
	// A narrow store followed by a wide load overlapping it must wait
	// for the store to commit, not forward stale bytes.
	_, res := runSrc(t, MegaBoom(), `
	.data
buf: .dword 0
	.text
_start:
	la  t0, buf
	li  t1, 0x1111111111111111
	sd  t1, 0(t0)
	li  t2, 0xFF
	sb  t2, 3(t0)         # narrow store
	ld  a0, 0(t0)         # wide load overlapping the byte
	srli a0, a0, 24
	andi a0, a0, 0xFF     # must see 0xFF
	j exit
`+exitStub)
	if res.ExitCode != 0xFF {
		t.Errorf("partial-overlap load = %#x want 0xFF", res.ExitCode)
	}
}

func TestNestedMispredictRecovery(t *testing.T) {
	// Nested data-dependent branches force mispredicts on both levels;
	// the architectural sum must be exact.
	_, res := runSrc(t, MegaBoom(), `
_start:
	li  s2, 64
	li  s3, 0
loop:
	andi t0, s2, 1
	beqz t0, even
	andi t1, s2, 2
	beqz t1, odd_a
	addi s3, s3, 1
	j next
odd_a:
	addi s3, s3, 2
	j next
even:
	andi t1, s2, 4
	beqz t1, even_a
	addi s3, s3, 4
	j next
even_a:
	addi s3, s3, 8
next:
	addi s2, s2, -1
	bnez s2, loop
	mv a0, s3
	j exit
`+exitStub)
	want := uint64(0)
	for i := 64; i >= 1; i-- {
		switch {
		case i&1 == 1 && i&2 != 0:
			want++
		case i&1 == 1:
			want += 2
		case i&4 != 0:
			want += 4
		default:
			want += 8
		}
	}
	if res.ExitCode != want {
		t.Errorf("nested branches = %d want %d", res.ExitCode, want)
	}
}

func TestReturnAddressStackPrediction(t *testing.T) {
	// Alternating call sites: a BTB-only predictor mispredicts every
	// other return; the RAS should get them right.
	_, res := runSrc(t, MegaBoom(), `
_start:
	li  s2, 40
	li  s3, 0
loop:
	call f
	add  s3, s3, a0
	call g
	add  s3, s3, a0
	addi s2, s2, -1
	bnez s2, loop
	mv  a0, s3
	j exit
f:
	li a0, 1
	ret
g:
	li a0, 2
	ret
`+exitStub)
	if res.ExitCode != 120 {
		t.Errorf("exit = %d want 120", res.ExitCode)
	}
	if res.Mispredicts > res.Branches/4 {
		t.Errorf("too many mispredicts with a RAS: %d of %d",
			res.Mispredicts, res.Branches)
	}
}

func TestResultStatistics(t *testing.T) {
	_, res := runSrc(t, MegaBoom(), `
	.data
buf: .zero 16384
	.text
_start:
	la  t0, buf
	li  t1, 64
loop:
	ld  t2, 0(t0)
	addi t0, t0, 128      # every other line: misses
	addi t1, t1, -1
	bnez t1, loop
	la  t0, buf
	li  t1, 64
loop2:                    # second pass over cached lines: hits
	ld  t2, 0(t0)
	addi t0, t0, 128
	addi t1, t1, -1
	bnez t1, loop2
	li a0, 0
	j exit
`+exitStub)
	if res.DCacheMisses == 0 {
		t.Error("strided loads should record misses")
	}
	if res.DCacheHits == 0 {
		t.Error("the second pass over cached lines should record hits")
	}
	if res.TLBMisses == 0 {
		t.Error("buffer pages should record TLB misses")
	}
	if res.Prefetches == 0 {
		t.Error("next-line prefetcher should have fired")
	}
}
