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

// lookup probes for a line (identified by addr>>lineShift) and refreshes
// its LRU stamp on a hit.
func (c *cache) lookup(lineAddr uint64, now int64) bool {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lastUse = now
			return true
		}
	}
	return false
}

// present probes without updating replacement state.
func (c *cache) present(lineAddr uint64) bool {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// insert fills a line, evicting the LRU way if needed.
func (c *cache) insert(lineAddr uint64, now int64) {
	c.fill(lineAddr, now, pfNone)
}

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

// demandLookup probes for a line on behalf of a demand access. On a hit
// it refreshes the LRU stamp and clears (and reports) the prefetch
// source, so the prefetchers' accuracy counters can distinguish useful
// fills from wasted ones.
func (c *cache) demandLookup(lineAddr uint64, now int64) (hit bool, wasPrefetched uint8) {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lastUse = now
			wasPrefetched = set[i].prefetched
			set[i].prefetched = pfNone
			return true, wasPrefetched
		}
	}
	return false, pfNone
}

// invalidate removes a line if present.
func (c *cache) invalidate(lineAddr uint64) {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].valid = false
		}
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
}

func newTLB(n int) *tlb { return &tlb{entries: make([]tlbEntry, n)} }

func (t *tlb) lookup(page uint64, now int64) bool {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			t.entries[i].lastUse = now
			return true
		}
	}
	return false
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
	t.entries[victim] = tlbEntry{page: page, valid: true, lastUse: now}
}

// recencyOrdered returns the valid pages most-recently-used first, as a
// freshly allocated slice safe to retain.
func (t *tlb) recencyOrdered() []tlbEntry {
	return append([]tlbEntry(nil), t.recencyScratch()...)
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

	mshrs []mshr
	lfb   []lfbEntry
	// lfbLive bounds the valid fill-buffer slots: every valid slot's
	// index is below it, so scans stop at lfb[:lfbLive].
	lfbLive int

	// Outstanding next-line prefetches.
	nlp []mshr

	// Stride prefetcher: per-PC training table (direct-mapped by PC) and
	// outstanding stride prefetches. The table is the SPF's RTL state —
	// secret-dependent access patterns train secret-dependent strides,
	// which the SPF-ADDR trace unit observes via the in-flight trackers.
	stride []strideEntry
	spf    []mshr

	// Demand request addresses observed this cycle (Cache-ADDR feature).
	reqThisCycle []reqEvent

	// Statistics.
	hits, misses, tlbMisses, prefetches uint64
	// Prefetcher accuracy: fills later demanded vs fills evicted (or
	// still unreferenced) without ever serving a demand access.
	nlpUseful, nlpUseless uint64
	// Stride-prefetcher issue and accuracy counters.
	spfPrefetches, spfUseful, spfUseless uint64
	// Demand-MSHR occupancy high-water mark across the run.
	mshrHighWater int
}

type reqEvent struct {
	addr uint64
	pc   uint64
}

func newDCache(cfg Config, mem *Memory) *dcache {
	return &dcache{
		cfg:    cfg,
		cache:  newCache(cfg.DCacheSets, cfg.DCacheWays, cfg.LineBytes),
		tlb:    newTLB(cfg.TLBEntries),
		mem:    mem,
		mshrs:  make([]mshr, cfg.MSHREntries),
		lfb:    make([]lfbEntry, cfg.LFBEntries),
		nlp:    make([]mshr, 2),
		stride: make([]strideEntry, spfTableEntries),
		spf:    make([]mshr, 2),
	}
}

func (d *dcache) lineOf(addr uint64) uint64 { return addr >> d.cache.lineShift }

// accountEvicted charges a never-demanded prefetched line to the
// prefetcher that fetched it.
func (d *dcache) accountEvicted(evicted cacheLine) {
	if !evicted.valid {
		return
	}
	switch evicted.prefetched {
	case pfNLP:
		d.nlpUseless++
	case pfSPF:
		d.spfUseless++
	}
}

// tick retires completed fills and expires fill-buffer entries.
func (d *dcache) tick(now int64) {
	d.reqThisCycle = d.reqThisCycle[:0]
	for i := range d.mshrs {
		if d.mshrs[i].valid && d.mshrs[i].fillAt <= now {
			d.accountEvicted(d.cache.fill(d.mshrs[i].lineAddr, now, pfNone))
			d.mshrs[i].valid = false
		}
	}
	for i := range d.nlp {
		if d.nlp[i].valid && d.nlp[i].fillAt <= now {
			src := pfNone
			if d.nlp[i].prefetch {
				src = pfNLP
			}
			d.accountEvicted(d.cache.fill(d.nlp[i].lineAddr, now, src))
			d.nlp[i].valid = false
		}
	}
	for i := range d.spf {
		if d.spf[i].valid && d.spf[i].fillAt <= now {
			src := pfNone
			if d.spf[i].prefetch {
				src = pfSPF
			}
			d.accountEvicted(d.cache.fill(d.spf[i].lineAddr, now, src))
			d.spf[i].valid = false
		}
	}
	live := d.lfb[:d.lfbLive]
	for i := range live {
		if live[i].valid && live[i].freeAt <= now {
			live[i].valid = false
		}
	}
	for d.lfbLive > 0 && !d.lfb[d.lfbLive-1].valid {
		d.lfbLive--
	}
}

func (d *dcache) mshrFor(line uint64) *mshr {
	for i := range d.mshrs {
		if d.mshrs[i].valid && d.mshrs[i].lineAddr == line {
			return &d.mshrs[i]
		}
	}
	return nil
}

func (d *dcache) freeMSHR() *mshr {
	for i := range d.mshrs {
		if !d.mshrs[i].valid {
			return &d.mshrs[i]
		}
	}
	return nil
}

// mshrOccupancy counts the demand MSHRs currently tracking a miss.
func (d *dcache) mshrOccupancy() int {
	n := 0
	for i := range d.mshrs {
		if d.mshrs[i].valid {
			n++
		}
	}
	return n
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

// access models a demand load or store reaching the L1D. It returns the
// cycle at which the data is available (load) or the write is accepted
// (store), and ok=false when the request must be retried because all
// MSHRs or fill-buffer slots are busy.
func (d *dcache) access(now int64, addr, pc uint64) (done int64, ok bool) {
	d.reqThisCycle = append(d.reqThisCycle, reqEvent{addr: addr, pc: pc})

	penalty := int64(0)
	page := addr / pageBytes
	if !d.tlb.lookup(page, now) {
		penalty = int64(d.cfg.TLBMissLat)
		d.tlb.insert(page, now)
		d.tlbMisses++
	}

	line := d.lineOf(addr)
	d.maybePrefetch(now, line)
	d.trainStride(now, addr, pc)

	if hit, wasPrefetched := d.cache.demandLookup(line, now); hit {
		d.hits++
		switch wasPrefetched {
		case pfNLP:
			d.nlpUseful++
		case pfSPF:
			d.spfUseful++
		}
		return now + penalty + int64(d.cfg.DCacheHitLat), true
	}
	d.misses++
	if m := d.mshrFor(line); m != nil {
		return m.fillAt + 1 + penalty, true
	}
	// Check in-flight prefetches: promote to a demand hit on the fill.
	for i := range d.nlp {
		if d.nlp[i].valid && d.nlp[i].lineAddr == line {
			if d.nlp[i].prefetch {
				d.nlp[i].prefetch = false // demanded while in flight: useful
				d.nlpUseful++
			}
			return d.nlp[i].fillAt + 1 + penalty, true
		}
	}
	for i := range d.spf {
		if d.spf[i].valid && d.spf[i].lineAddr == line {
			if d.spf[i].prefetch {
				d.spf[i].prefetch = false // demanded while in flight: useful
				d.spfUseful++
			}
			return d.spf[i].fillAt + 1 + penalty, true
		}
	}
	m := d.freeMSHR()
	f := d.freeLFB()
	if m == nil || f == nil {
		return 0, false
	}
	fill := now + penalty + int64(d.cfg.MissLat)
	*m = mshr{valid: true, lineAddr: line, fillAt: fill}
	if occ := d.mshrOccupancy(); occ > d.mshrHighWater {
		d.mshrHighWater = occ
	}
	lineBase := line << d.cache.lineShift
	*f = lfbEntry{
		valid:    true,
		lineAddr: line,
		data:     d.mem.Read(lineBase, 8),
		fillAt:   fill,
		freeAt:   fill + 3,
	}
	return fill + 1, true
}

// maybePrefetch lets the next-line prefetcher probe line+1 on every
// demand access and fetch it when absent. A prefetch occupies a next-line
// tracker slot, an MSHR and a fill-buffer entry, as in real designs, but
// never delays demand traffic (demand requests that need the last MSHR
// simply retry the next cycle).
func (d *dcache) maybePrefetch(now int64, line uint64) {
	if !d.cfg.NextLinePrefetcher {
		return
	}
	next := line + 1
	if d.cache.present(next) || d.mshrFor(next) != nil {
		return
	}
	for i := range d.nlp {
		if d.nlp[i].valid && d.nlp[i].lineAddr == next {
			return
		}
	}
	for i := range d.spf {
		if d.spf[i].valid && d.spf[i].lineAddr == next {
			return
		}
	}
	f := d.freeLFB()
	if f == nil {
		return
	}
	for i := range d.nlp {
		if !d.nlp[i].valid {
			fill := now + int64(d.cfg.MissLat)
			d.prefetches++
			d.nlp[i] = mshr{valid: true, lineAddr: next, fillAt: fill, prefetch: true}
			lineBase := next << d.cache.lineShift
			*f = lfbEntry{
				valid:    true,
				lineAddr: next,
				data:     d.mem.Read(lineBase, 8),
				fillAt:   fill,
				freeAt:   fill + 3,
			}
			return
		}
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
		d.spfPrefetch(now, uint64(int64(addr)+e.stride), pc)
	}
}

// spfPrefetch issues a stride prefetch for the line containing addr. A
// stride prefetch occupies a dedicated tracker slot and a fill-buffer
// entry, like a next-line prefetch, and never delays demand traffic.
// pc is the training load stream, recorded for attribution.
func (d *dcache) spfPrefetch(now int64, addr uint64, pc uint64) {
	line := d.lineOf(addr)
	if d.cache.present(line) || d.mshrFor(line) != nil {
		return
	}
	for i := range d.nlp {
		if d.nlp[i].valid && d.nlp[i].lineAddr == line {
			return
		}
	}
	for i := range d.spf {
		if d.spf[i].valid && d.spf[i].lineAddr == line {
			return
		}
	}
	f := d.freeLFB()
	if f == nil {
		return
	}
	for i := range d.spf {
		if !d.spf[i].valid {
			fill := now + int64(d.cfg.MissLat)
			d.spfPrefetches++
			d.spf[i] = mshr{valid: true, lineAddr: line, fillAt: fill, prefetch: true, trainPC: pc}
			lineBase := line << d.cache.lineShift
			*f = lfbEntry{
				valid:    true,
				lineAddr: line,
				data:     d.mem.Read(lineBase, 8),
				fillAt:   fill,
				freeAt:   fill + 3,
			}
			return
		}
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
	if ic.cache.lookup(line, now) {
		return now + int64(ic.hitLat) - 1
	}
	ic.cache.insert(line, now)
	return now + int64(ic.missLat)
}

// flush invalidates the line containing addr.
func (ic *icache) flush(addr uint64) {
	ic.cache.invalidate(addr >> ic.cache.lineShift)
}
