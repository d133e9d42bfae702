package sim

// Prefetch source tags recorded on cache lines and fills, so the
// accuracy counters can attribute useful and useless fills to the
// prefetcher that issued them.
const (
	pfNone uint8 = iota // demand fill
	pfNLP               // next-line prefetcher
	pfSPF               // stride prefetcher
)

// cacheLine is one way of a set.
type cacheLine struct {
	tag        uint64
	valid      bool
	lastUse    int64
	prefetched uint8 // prefetch source of the fill, until first demanded
}

// cache is a set-associative, LRU-replacement cache model. It tracks tags
// only; data always comes from the functional Memory.
type cache struct {
	sets      [][]cacheLine
	setMask   uint64
	lineShift uint
}

func newCache(sets, ways, lineBytes int) *cache {
	c := &cache{
		sets:    make([][]cacheLine, sets),
		setMask: uint64(sets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, ways)
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

func (c *cache) setOf(lineAddr uint64) []cacheLine { return c.sets[lineAddr&c.setMask] }

// find returns the valid way holding a line (identified by
// addr>>lineShift), or nil.
func (c *cache) find(lineAddr uint64) *cacheLine {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// lookup probes for a line on behalf of a demand access. On a hit it
// refreshes the LRU stamp and clears (and reports) the prefetch source,
// so the prefetchers' accuracy counters can distinguish useful fills
// from wasted ones.
func (c *cache) lookup(lineAddr uint64, now int64) (hit bool, wasPrefetched uint8) {
	l := c.find(lineAddr)
	if l == nil {
		return false, pfNone
	}
	l.lastUse = now
	wasPrefetched, l.prefetched = l.prefetched, pfNone
	return true, wasPrefetched
}

// present probes without updating replacement state.
func (c *cache) present(lineAddr uint64) bool { return c.find(lineAddr) != nil }

// fill installs a line (tagging prefetcher fills with their source) and
// returns the evicted line so callers can account for never-used
// prefetches.
func (c *cache) fill(lineAddr uint64, now int64, prefetched uint8) (evicted cacheLine) {
	set := c.setOf(lineAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	evicted = set[victim]
	set[victim] = cacheLine{tag: lineAddr, valid: true, lastUse: now, prefetched: prefetched}
	return evicted
}

// invalidate removes a line if present.
func (c *cache) invalidate(lineAddr uint64) {
	if l := c.find(lineAddr); l != nil {
		l.valid = false
	}
}

// tlbEntry is one data-TLB mapping (identity translation; the entry
// models timing and replacement state only).
type tlbEntry struct {
	page    uint64
	valid   bool
	lastUse int64
}

type tlb struct {
	entries []tlbEntry
	scratch []tlbEntry // reused by recencyScratch; no per-cycle allocation

	// gen counts the changes of the recency order, the TLB-ADDR row's
	// change mark. mru is the entry known to be used strictly more
	// recently than every other (-1: none known), and touched the cycle
	// of the latest use.
	gen     uint64
	mru     int
	touched int64
}

func newTLB(n int) *tlb { return &tlb{entries: make([]tlbEntry, n), mru: -1} }

func (t *tlb) lookup(page uint64, now int64) bool {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			t.touch(i, now)
			return true
		}
	}
	return false
}

// touch marks entry i used at now. That leaves the recency order as it
// was only when i already led it strictly; afterwards i leads it
// strictly unless another entry was used in the same cycle.
func (t *tlb) touch(i int, now int64) {
	t.entries[i].lastUse = now
	if i != t.mru {
		t.gen++
		t.mru = i
		if t.touched == now {
			t.mru = -1
		}
	}
	t.touched = now
}

func (t *tlb) insert(page uint64, now int64) {
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{page: page, valid: true}
	t.mru = -1 // the entry's page changed
	t.touch(victim, now)
}

// recencyScratch returns the valid pages most-recently-used first. This
// is the TLB-ADDR feature row: it exposes the replacement (LRU stack)
// state, which is genuine RTL state of the translation unit. The result
// is backed by a reused scratch buffer, valid until the next call.
func (t *tlb) recencyScratch() []tlbEntry {
	out := t.scratch[:0]
	for _, e := range t.entries {
		if e.valid {
			out = append(out, e)
		}
	}
	// Insertion sort by lastUse descending; the TLB is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].lastUse > out[j-1].lastUse; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	t.scratch = out
	return out
}

// mshr is a miss-status holding register: one outstanding cache miss.
type mshr struct {
	valid    bool
	lineAddr uint64
	fillAt   int64
	prefetch bool
	// trainPC, set for stride-prefetch trackers only, is the PC of the
	// load stream that trained the prefetch — the attribution target of
	// the SPF-ADDR trace unit.
	trainPC uint64
}

// tracker is one set of outstanding-fill slots: the demand MSHRs or a
// prefetcher's miss trackers. gen is the change mark of the rows that
// read the slots, fills and expiries included; issued counts the fills
// it started, and useful and useless how its prefetched lines ended:
// demanded, or evicted without ever serving a demand access.
type tracker struct {
	slots                        []mshr
	gen, issued, useful, useless uint64
}

func (t *tracker) free() *mshr {
	for i := range t.slots {
		if !t.slots[i].valid {
			return &t.slots[i]
		}
	}
	return nil
}

// occupancy counts the slots currently tracking a fill.
func (t *tracker) occupancy() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].valid {
			n++
		}
	}
	return n
}

// lfbEntry is a load-fill-buffer slot holding an in-flight or freshly
// filled line.
type lfbEntry struct {
	valid    bool
	lineAddr uint64
	data     uint64 // first doubleword of the line
	fillAt   int64
	freeAt   int64
}

// spfTableEntries is the size of the stride prefetcher's per-PC table.
const spfTableEntries = 16

// strideEntry is one slot of the stride prefetcher's training table,
// tracking the last address and observed stride of the load/store at a
// given PC with a 2-bit confidence counter.
type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8 // saturates at 3; prefetch once >= 2
	valid    bool
}

// dcache bundles the L1D tag array, MSHRs, load-fill buffer, next-line
// and stride prefetchers and data TLB, and provides the timing interface
// used by the load/store machinery.
type dcache struct {
	cfg   Config
	cache *cache
	tlb   *tlb
	mem   *Memory

	// Outstanding fills, indexed by their source: the demand MSHRs
	// (pfNone), the next-line prefetches (pfNLP) and the stride
	// prefetches (pfSPF). Every walk visits them in that order.
	trackers [3]tracker

	lfb []lfbEntry
	// lfbLive bounds the valid fill-buffer slots: every valid slot's
	// index is below it, so scans stop at lfb[:lfbLive].
	lfbLive int

	// Stride prefetcher's per-PC training table (direct-mapped by PC).
	// The table is the SPF's RTL state — secret-dependent access
	// patterns train secret-dependent strides, which the SPF-ADDR trace
	// unit observes via the in-flight trackers.
	stride []strideEntry

	// Demand request addresses observed this cycle (Cache-ADDR feature).
	reqThisCycle []reqEvent

	// Change marks of the fill buffer and the Cache-ADDR row.
	lfbGen, reqGen uint64

	// Statistics.
	hits, misses, tlbMisses uint64
	// Demand-MSHR occupancy high-water mark across the run.
	mshrHighWater int
}

type reqEvent struct {
	addr uint64
	pc   uint64
}

func newDCache(cfg Config, mem *Memory) *dcache {
	d := &dcache{
		cfg:    cfg,
		cache:  newCache(cfg.DCacheSets, cfg.DCacheWays, cfg.LineBytes),
		tlb:    newTLB(cfg.TLBEntries),
		mem:    mem,
		lfb:    make([]lfbEntry, cfg.LFBEntries),
		stride: make([]strideEntry, spfTableEntries),
	}
	for src, n := range [...]int{pfNone: cfg.MSHREntries, pfNLP: 2, pfSPF: 2} {
		d.trackers[src].slots = make([]mshr, n)
	}
	return d
}

func (d *dcache) lineOf(addr uint64) uint64 { return addr >> d.cache.lineShift }

// tick retires completed fills and expires fill-buffer entries. A
// never-demanded prefetched line that a fill evicts is charged to the
// prefetcher that fetched it.
func (d *dcache) tick(now int64) {
	if len(d.reqThisCycle) > 0 {
		d.reqThisCycle = d.reqThisCycle[:0]
		d.reqGen++
	}
	for src := range d.trackers {
		t := &d.trackers[src]
		for i := range t.slots {
			m := &t.slots[i]
			if !m.valid || m.fillAt > now {
				continue
			}
			fillSrc := pfNone
			if m.prefetch {
				fillSrc = uint8(src)
			}
			if ev := d.cache.fill(m.lineAddr, now, fillSrc); ev.valid && ev.prefetched != pfNone {
				d.trackers[ev.prefetched].useless++
			}
			m.valid = false
			t.gen++
		}
	}
	live := d.lfb[:d.lfbLive]
	for i := range live {
		switch {
		case !live[i].valid:
		case live[i].freeAt <= now:
			live[i].valid = false
			d.lfbGen++
		case live[i].fillAt == now: // LFB-Data shows the line from now on
			d.lfbGen++
		}
	}
	for d.lfbLive > 0 && !d.lfb[d.lfbLive-1].valid {
		d.lfbLive--
	}
}

// inFlight returns the slot tracking the line's outstanding fill and
// its source, or nil.
func (d *dcache) inFlight(line uint64) (*mshr, uint8) {
	for src := range d.trackers {
		t := &d.trackers[src]
		for i := range t.slots {
			if t.slots[i].valid && t.slots[i].lineAddr == line {
				return &t.slots[i], uint8(src)
			}
		}
	}
	return nil, pfNone
}

func (d *dcache) freeLFB() *lfbEntry {
	for i := range d.lfb {
		if !d.lfb[i].valid {
			d.lfbLive = max(d.lfbLive, i+1)
			return &d.lfb[i]
		}
	}
	return nil
}

// start begins a fill of the line from source src, arriving at fill:
// it takes a fill-buffer slot and a slot of the source's tracker, and
// reports false, starting nothing, when either is busy. pc is the
// training load stream of a stride prefetch, recorded for attribution.
func (d *dcache) start(src uint8, line uint64, fill int64, pc uint64) bool {
	f := d.freeLFB()
	t := &d.trackers[src]
	m := t.free()
	if f == nil || m == nil {
		return false
	}
	*m = mshr{valid: true, lineAddr: line, fillAt: fill, prefetch: src != pfNone, trainPC: pc}
	t.gen++
	t.issued++
	*f = lfbEntry{
		valid:    true,
		lineAddr: line,
		data:     d.mem.Read(line<<d.cache.lineShift, 8),
		fillAt:   fill,
		freeAt:   fill + 3,
	}
	d.lfbGen++
	return true
}

// access models a demand load or store reaching the L1D. It returns the
// cycle at which the data is available (load) or the write is accepted
// (store), and ok=false when the request must be retried because all
// MSHRs or fill-buffer slots are busy.
func (d *dcache) access(now int64, addr, pc uint64) (done int64, ok bool) {
	d.reqThisCycle = append(d.reqThisCycle, reqEvent{addr: addr, pc: pc})
	d.reqGen++

	penalty := int64(0)
	page := addr / pageBytes
	if !d.tlb.lookup(page, now) {
		penalty = int64(d.cfg.TLBMissLat)
		d.tlb.insert(page, now)
		d.tlbMisses++
	}

	line := d.lineOf(addr)
	if d.cfg.NextLinePrefetcher {
		d.prefetch(now, pfNLP, line+1, 0)
	}
	d.trainStride(now, addr, pc)

	if hit, src := d.cache.lookup(line, now); hit {
		d.hits++
		if src != pfNone {
			d.trackers[src].useful++
		}
		return now + penalty + int64(d.cfg.DCacheHitLat), true
	}
	d.misses++
	// An outstanding fill serves the access; a prefetch demanded while
	// in flight counts as useful.
	if m, src := d.inFlight(line); m != nil {
		if m.prefetch {
			m.prefetch = false
			d.trackers[src].useful++
		}
		return m.fillAt + 1 + penalty, true
	}
	fill := now + penalty + int64(d.cfg.MissLat)
	if !d.start(pfNone, line, fill, 0) {
		return 0, false
	}
	d.mshrHighWater = max(d.mshrHighWater, d.trackers[pfNone].occupancy())
	return fill + 1, true
}

// prefetch lets prefetcher src fetch the line when it is neither cached
// nor in flight. A prefetch occupies a tracker slot of its own and a
// fill-buffer entry, as in real designs, but never delays demand
// traffic (demand requests that need the last fill-buffer entry simply
// retry the next cycle). pc is the training load stream of a stride
// prefetch.
func (d *dcache) prefetch(now int64, src uint8, line, pc uint64) {
	if m, _ := d.inFlight(line); m == nil && !d.cache.present(line) {
		d.start(src, line, now+int64(d.cfg.MissLat), pc)
	}
}

// trainStride updates the stride prefetcher's per-PC table for a demand
// access. The table is direct-mapped by the accessing instruction's PC;
// a slot learns the stride between consecutive addresses from its PC and
// gains confidence on each repeat. Once confident, every access runs one
// stride ahead of the stream.
func (d *dcache) trainStride(now int64, addr, pc uint64) {
	if !d.cfg.StridePrefetcher {
		return
	}
	e := &d.stride[(pc>>2)&(spfTableEntries-1)]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride != e.stride {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = stride
		}
		return
	}
	if e.conf < 3 {
		e.conf++
	}
	if e.conf >= 2 {
		d.prefetch(now, pfSPF, d.lineOf(uint64(int64(addr)+e.stride)), pc)
	}
}

// flush invalidates the line containing addr (CBO.FLUSH).
func (d *dcache) flush(addr uint64) {
	d.cache.invalidate(d.lineOf(addr))
}

// icache is the instruction-side cache: a plain tag array with a fill
// delay; the front end stalls on misses.
type icache struct {
	cache   *cache
	hitLat  int
	missLat int
}

func newICache(cfg Config) *icache {
	return &icache{
		cache:   newCache(cfg.ICacheSets, cfg.ICacheWays, cfg.LineBytes),
		hitLat:  cfg.ICacheHitLat,
		missLat: cfg.MissLat,
	}
}

// fetchReady returns the cycle at which the line containing pc can
// deliver instructions, filling it on a miss.
func (ic *icache) fetchReady(now int64, pc uint64) int64 {
	line := pc >> ic.cache.lineShift
	if hit, _ := ic.cache.lookup(line, now); hit {
		return now + int64(ic.hitLat) - 1
	}
	ic.cache.fill(line, now, pfNone)
	return now + int64(ic.missLat)
}

// flush invalidates the line containing addr.
func (ic *icache) flush(addr uint64) {
	ic.cache.invalidate(addr >> ic.cache.lineShift)
}
