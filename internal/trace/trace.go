// Package trace implements the microarchitectural state sampler: the
// bridge between the cycle-level simulator and the snapshot/statistics
// pipeline. It is the equivalent of the paper's Chisel printf
// instrumentation plus the MicroSampler Parser (steps 1–2 of Fig. 1):
// each cycle inside the security-critical region it captures one state
// row per tracked unit (Table IV), groups rows into per-iteration
// snapshot matrices, and deduplicates them by hash, labeled with the
// iteration's secret class.
//
// The per-cycle path is allocation-free in steady state: unit state is
// indexed by dense arrays rather than maps, and every unit owns
// preallocated row buffers. A row equal to the previous cycle's costs one
// compare and one repeat count. A changed row streams only what entered
// it since the previous row into the iteration's timed hash (see
// snapshot.HashTimed), and event detection scans only those values
// against a count multiset of the previous row, so event values stream
// into the event recorder value by value. Warmup iterations sample
// nothing.
package trace

import (
	"cmp"
	"slices"
	"sort"

	"microsampler/internal/isa"
	"microsampler/internal/sim"
	"microsampler/internal/siphash"
	"microsampler/internal/snapshot"
)

// Unit identifies one tracked microarchitectural feature (Table IV).
type Unit int

// Tracked features.
const (
	SQADDR     Unit = iota + 1 // store queue: store addresses
	SQPC                       // store queue: program counters
	LQADDR                     // load queue: load addresses
	LQPC                       // load queue: program counters
	ROBOCPNCY                  // reorder buffer occupancy
	ROBPC                      // reorder buffer program counters
	LFBDATA                    // load-fill buffer contents
	LFBADDR                    // load-fill buffer addresses
	EUUALU                     // ALU busy with PC
	EUUADDRGEN                 // address-generation unit busy with PC
	EUUDIV                     // divider busy with PC
	EUUMUL                     // multiplier busy with PC
	NLPADDR                    // next-line prefetcher addresses
	CACHEADDR                  // D-cache request addresses
	TLBADDR                    // TLB entries
	MSHRADDR                   // cache miss (MSHR) addresses
	TAGEPRED                   // TAGE predictor: in-flight prediction metadata
	SPFADDR                    // stride prefetcher addresses

	numUnits = iota
)

// unitSpec declares one tracked unit: everything the collector and the
// provenance resolution need to know about it lives in its table row.
type unitSpec struct {
	name string // the paper's identifier; hashed into cache keys
	// row appends the unit's state row for the current cycle.
	row func(*sim.Probe, []uint64) []uint64
	// pcs, when set, appends a PC row slot-aligned with row, attributing
	// each value to the instruction that produced it.
	pcs  func(*sim.Probe, []uint64) []uint64
	kind provKind
	// timedRuns makes the unit's streams also encode how long each value
	// occupies its slot. The execution units leak through residency, not
	// arrival: an early-out divider holds the same PC for an
	// operand-dependent number of cycles while producing exactly one
	// arrival event per divide, so without run lengths both key classes
	// hash to identical streams and the leak cannot be localized.
	timedRuns bool
	// value maps a memory address to the value the unit samples for it
	// (nil: the address itself); see Unit.ValueOf.
	value func(addr uint64) uint64
}

// Address granularities of the value-keyed units. Both Table III
// configurations use 64-byte cache lines and 4 KiB pages.
const (
	lineBytes = 64
	pageBytes = 4096
)

func lineBase(addr uint64) uint64   { return addr &^ (lineBytes - 1) }
func pageNumber(addr uint64) uint64 { return addr / pageBytes }

// robOccupancy is the ROB-OCPNCY row: the occupancy count as one value.
func robOccupancy(p *sim.Probe, dst []uint64) []uint64 {
	return append(dst, uint64(p.ROBOccupancy()))
}

// unitSpecs is the unit table, indexed by Unit (index 0 unused). Adding
// a unit takes one probe row method and one row here.
var unitSpecs = [numUnits + 1]unitSpec{
	SQADDR:     {name: "SQ-ADDR", row: (*sim.Probe).AppendStoreAddrs, pcs: (*sim.Probe).AppendStorePCs, kind: provDirect},
	SQPC:       {name: "SQ-PC", row: (*sim.Probe).AppendStorePCs, kind: provDirect},
	LQADDR:     {name: "LQ-ADDR", row: (*sim.Probe).AppendLoadAddrs, pcs: (*sim.Probe).AppendLoadPCs, kind: provDirect},
	LQPC:       {name: "LQ-PC", row: (*sim.Probe).AppendLoadPCs, kind: provDirect},
	ROBOCPNCY:  {name: "ROB-OCPNCY", row: robOccupancy, kind: provNone},
	ROBPC:      {name: "ROB-PC", row: (*sim.Probe).AppendROBPCs, kind: provDirect},
	LFBDATA:    {name: "LFB-Data", row: (*sim.Probe).AppendLFBData, kind: provNone},
	LFBADDR:    {name: "LFB-ADDR", row: (*sim.Probe).AppendLFBAddrs, kind: provValue, value: lineBase},
	EUUALU:     {name: "EUU-ALU", row: (*sim.Probe).AppendALUBusy, kind: provDirect, timedRuns: true},
	EUUADDRGEN: {name: "EUU-ADDRGEN", row: (*sim.Probe).AppendAGUBusy, kind: provDirect, timedRuns: true},
	EUUDIV:     {name: "EUU-DIV", row: (*sim.Probe).AppendDivBusy, kind: provDirect, timedRuns: true},
	EUUMUL:     {name: "EUU-MUL", row: (*sim.Probe).AppendMulBusy, kind: provDirect, timedRuns: true},
	NLPADDR:    {name: "NLP-ADDR", row: (*sim.Probe).AppendPrefetchAddrs, kind: provValue, value: lineBase},
	CACHEADDR:  {name: "Cache-ADDR", row: (*sim.Probe).AppendCacheRequests, kind: provValue},
	TLBADDR:    {name: "TLB-ADDR", row: (*sim.Probe).AppendTLBPages, kind: provValue, value: pageNumber},
	MSHRADDR:   {name: "MSHR-ADDR", row: (*sim.Probe).AppendMSHRAddrs, kind: provValue, value: lineBase},
	TAGEPRED:   {name: "TAGE-PRED", row: (*sim.Probe).AppendBPredMeta, pcs: (*sim.Probe).AppendBPredPCs, kind: provDirect},
	SPFADDR:    {name: "SPF-ADDR", row: (*sim.Probe).AppendSPFAddrs, pcs: (*sim.Probe).AppendSPFPCs, kind: provDirect},
}

// String returns the paper's feature identifier.
func (u Unit) String() string {
	if !u.Valid() {
		return "UNIT?"
	}
	return unitSpecs[u].name
}

// Valid reports whether u indexes a tracked unit.
func (u Unit) Valid() bool { return u >= 1 && u <= numUnits }

// ValueOf maps a memory address to the value a value-keyed unit samples
// for it: the line base for the fill-buffer, prefetcher and MSHR units,
// the page number for the TLB, and the address itself otherwise. It is
// how provenance resolves an observed value back to the addresses, and
// so the instructions, that produced it.
func (u Unit) ValueOf(addr uint64) uint64 {
	if u.Valid() && unitSpecs[u].value != nil {
		return unitSpecs[u].value(addr)
	}
	return addr
}

// AllUnits returns every tracked unit in table order: Table IV order,
// followed by the extended hardware-space units (TAGE predictor, stride
// prefetcher).
func AllUnits() []Unit {
	out := make([]Unit, 0, numUnits)
	for u := Unit(1); u <= numUnits; u++ {
		out = append(out, u)
	}
	return out
}

// IterSample summarises one labeled iteration.
type IterSample struct {
	Class  uint64
	Cycles int64
}

// UnitTrace is the collected snapshot evidence for one unit.
type UnitTrace struct {
	Unit Unit
	// Full deduplicates the per-cycle snapshot matrices, timing
	// included, by their snapshot.HashTimed hash. The matrices
	// themselves are not kept: an entry's representative is the event
	// sequence of its first occurrence, which holds the same non-zero
	// values.
	Full *snapshot.Store
	// NoTiming holds the timing-free event view: the chronological
	// sequence of values newly appearing in the unit, with per-cycle
	// duration information discarded (the paper's "timing information
	// removed" transform of Section VII-B2).
	NoTiming *snapshot.Store
	// IterHashes is the full-snapshot hash of each kept iteration, in
	// execution order and aligned with Collector.Iterations. The Store
	// deduplicates by hash, so this sequence is what preserves *when*
	// each snapshot occurred — the leakage heatmap bins it into
	// iteration windows.
	IterHashes []uint64
}

// provKind classifies how a unit's events are attributed to code.
type provKind int

const (
	// provNone: the unit's values carry no attributable key (pure
	// occupancy counts, cache-line contents).
	provNone provKind = iota
	// provDirect: each event carries the program counter of the
	// instruction responsible, either because the sampled value is a PC
	// itself or because the probe exposes a slot-aligned PC row.
	provDirect
	// provValue: events are keyed by the observed value (an address at
	// byte, line or page granularity) and resolved to PCs afterwards
	// through the Attribution writer/reader maps.
	provValue
)

// provStream accumulates the event evidence for one key (a PC for
// direct units, an observed value otherwise) of one unit. The event
// values of the current iteration stream into a running siphash; kept
// iterations flush the digest into the unit's provenance log.
type provStream struct {
	h          siphash.Hasher
	key        uint64
	iterEvents uint64 // events seen this iteration
	events     uint64 // events across kept iterations
	touched    bool   // appeared this iteration (queued in provTouched)
}

// provRec is one kept-iteration observation of one key: all records of
// a unit share a single append-only log so the per-iteration flush has
// the same amortised allocation profile as iterHashes.
type provRec struct {
	stream int32 // index into unitState.prov
	iter   int32 // index into Collector.iters
	hash   uint64
}

// unitState is the per-unit sampling state, held in a dense array
// indexed by Unit so the per-cycle loop does no map lookups.
type unitState struct {
	timed      siphash.Hasher    // snapshot.HashTimed stream of the iteration
	evRec      snapshot.Recorder // timing-free event stream
	spec       *unitSpec
	row        []uint64 // per-unit row scratch, reused every cycle
	last       []uint64 // this iteration's previous row; empty at IterBegin
	repeat     uint64   // rows equal to last since last was absorbed
	pcRow      []uint64 // slot-aligned PC row scratch (units with spec.pcs)
	samples    uint64   // state rows sampled (telemetry)
	full       *snapshot.Store
	noT        *snapshot.Store
	iterHashes []uint64 // timed snapshot hash per kept iteration

	prov        []provStream // per-key event accumulators, first-seen order
	provIndex   u64set       // key (k, 0) → index into prov
	provTouched []int32      // indices into prov touched this iteration
	provLog     []provRec    // kept-iteration observations

	prevRow []uint64 // previous cycle's row (timed units only)
	runLen  []uint32 // consecutive cycles each slot held its value
}

// stream returns key's accumulator, appending it to prov on the key's
// first-ever sighting and queueing its index in provTouched on its
// first use this iteration. The returned pointer is valid until the
// next new key grows prov.
func (st *unitState) stream(key uint64) *provStream {
	i, added := st.provIndex.insert(key, 0, int32(len(st.prov)))
	if added {
		st.prov = append(st.prov, provStream{key: key})
		st.prov[i].h.Reset(siphash.DefaultKey)
	}
	ps := &st.prov[i]
	if !ps.touched {
		ps.touched = true
		st.provTouched = append(st.provTouched, i)
	}
	return ps
}

// provEvent folds one event value into the stream of its key: after the
// key's first sighting, one table probe and one hash block.
func (st *unitState) provEvent(key, v uint64) {
	ps := st.stream(key)
	ps.h.WriteUint64(v)
	ps.iterEvents++
}

// provRun folds a completed occupancy run into its key's stream. The
// high tag bit keeps run lengths from colliding with sampled values;
// runs do not count as events (the arrival already did).
func (st *unitState) provRun(key uint64, n uint32) {
	st.stream(key).h.WriteUint64(1<<63 | uint64(n))
}

// updateRuns advances per-slot occupancy runs for a timed unit: a slot
// keeping its value extends the run, a slot changing or draining folds
// the finished run's length into the departing key's stream.
func (st *unitState) updateRuns(row []uint64) {
	for len(st.prevRow) < len(row) {
		st.prevRow = append(st.prevRow, 0)
		st.runLen = append(st.runLen, 0)
	}
	for i := len(row); i < len(st.prevRow); i++ {
		if st.prevRow[i] != 0 {
			st.provRun(st.prevRow[i], st.runLen[i])
			st.prevRow[i], st.runLen[i] = 0, 0
		}
	}
	st.prevRow = st.prevRow[:len(row)]
	st.runLen = st.runLen[:len(row)]
	for i, v := range row {
		switch {
		case v == st.prevRow[i]:
			if v != 0 {
				st.runLen[i]++
			}
		default:
			if st.prevRow[i] != 0 {
				st.provRun(st.prevRow[i], st.runLen[i])
			}
			st.prevRow[i] = v
			if v != 0 {
				st.runLen[i] = 1
			} else {
				st.runLen[i] = 0
			}
		}
	}
}

// foldRuns closes out the outstanding runs at an iteration boundary so
// that a run in flight when iter.end commits still contributes its
// length to this iteration's streams.
func (st *unitState) foldRuns() {
	for i, v := range st.prevRow {
		if v != 0 {
			st.provRun(v, st.runLen[i])
		}
		st.prevRow[i], st.runLen[i] = 0, 0
	}
}

// resetProv discards the current iteration's stream state.
func (st *unitState) resetProv() {
	for _, i := range st.provTouched {
		ps := &st.prov[i]
		ps.touched = false
		ps.iterEvents = 0
		ps.h.Reset(siphash.DefaultKey)
	}
	st.provTouched = st.provTouched[:0]
	for i := range st.prevRow {
		st.prevRow[i], st.runLen[i] = 0, 0
	}
}

// flushProv commits the current iteration's streams to the provenance
// log under kept-iteration index iter, then resets them.
func (st *unitState) flushProv(iter int32) {
	for _, i := range st.provTouched {
		ps := &st.prov[i]
		st.provLog = append(st.provLog, provRec{stream: i, iter: iter, hash: ps.h.Sum64()})
		ps.events += ps.iterEvents
		ps.touched = false
		ps.iterEvents = 0
		ps.h.Reset(siphash.DefaultKey)
	}
	st.provTouched = st.provTouched[:0]
}

// Collector implements sim.Tracer. It samples the tracked units every
// cycle while inside a region of interest and a labeled iteration.
type Collector struct {
	units  []Unit
	states [numUnits + 1]unitState // indexed by Unit (index 0 unused)

	roi       bool
	inIter    bool
	class     uint64
	iterStart int64
	iterIdx   int
	dropFirst int

	iters []IterSample

	// Memory-access attribution inside the region of interest: which
	// store/load PCs produced each address, as sets of (address, PC)
	// pairs. This is the paper's root-cause step of resolving leaked
	// addresses back to the instructions (and thus functions) that
	// issued them.
	writers, readers u64set
}

var _ sim.Tracer = (*Collector)(nil)

// Option configures a Collector.
type Option func(*Collector)

// WithUnits restricts tracking to the given units (default: all).
// Values outside Table IV are ignored.
func WithUnits(units ...Unit) Option {
	return func(c *Collector) { c.units = units }
}

// WithWarmupIterations drops the first n labeled iterations from the
// analysis, discarding cold-start effects (cold caches and untrained
// predictors produce one-off snapshots that are not secret-dependent).
func WithWarmupIterations(n int) Option {
	return func(c *Collector) { c.dropFirst = n }
}

// NewCollector returns a Collector tracking all Table IV units.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{units: AllUnits()}
	for _, o := range opts {
		o(c)
	}
	// Filter into a fresh slice: the configured slice may be shared
	// between collectors running in parallel, so it must stay read-only.
	kept := make([]Unit, 0, len(c.units))
	for _, u := range c.units {
		if u.Valid() {
			kept = append(kept, u)
		}
	}
	c.units = kept
	for _, u := range c.units {
		st := &c.states[u]
		st.timed.Reset(siphash.DefaultKey)
		st.evRec.Reset()
		buf := make([]uint64, 256) // row and last share one array
		st.row, st.last = buf[:0:128], buf[128:128]
		st.full = snapshot.NewStore()
		st.noT = snapshot.NewStore()
		st.spec = &unitSpecs[u]
		if st.spec.pcs != nil {
			st.pcRow = make([]uint64, 0, 128)
		}
	}
	return c
}

// OnMark handles commit-time region and iteration markers.
func (c *Collector) OnMark(cycle int64, kind isa.MarkKind, class uint64) {
	switch kind {
	case isa.MarkROIBegin:
		c.roi = true
	case isa.MarkROIEnd:
		c.roi = false
		c.inIter = false
	case isa.MarkIterBegin:
		if !c.roi {
			return
		}
		c.inIter = true
		c.class = class
		c.iterStart = cycle
		for _, u := range c.units {
			st := &c.states[u]
			st.timed.Reset(siphash.DefaultKey)
			st.last = st.last[:0]
			st.repeat = 0
			st.evRec.Reset()
			st.resetProv()
		}
	case isa.MarkIterEnd:
		if !c.roi || !c.inIter {
			return
		}
		c.inIter = false
		keep := c.iterIdx >= c.dropFirst
		c.iterIdx++
		if !keep {
			return
		}
		c.iters = append(c.iters, IterSample{
			Class:  c.class,
			Cycles: cycle - c.iterStart,
		})
		keptIdx := int32(len(c.iters) - 1)
		for _, u := range c.units {
			st := &c.states[u]
			// Both stores keep the event sequence as an entry's
			// representative: a timed matrix's non-zero values are
			// exactly the values its events carry. The final run of
			// repeats closes the timed stream.
			st.timed.WriteUint64(st.repeat)
			fullH := st.timed.Sum64()
			st.full.ObserveFrom(c.class, fullH, &st.evRec)
			st.iterHashes = append(st.iterHashes, fullH)
			st.noT.ObserveFrom(c.class, st.evRec.Hash(), &st.evRec)
			st.foldRuns()
			st.flushProv(keptIdx)
		}
	}
}

// OnCycle samples one state row per unit and derives its timing-free
// event row: the values present this cycle that were absent the cycle
// before (newly arrived entries, changed states, issued requests). Each
// event becomes its own single-value row so that the event stream
// carries no per-cycle grouping (which would smuggle timing back into
// the "timing removed" view). A warmup iteration is discarded at
// IterEnd, so its rows are counted but not sampled.
func (c *Collector) OnCycle(p *sim.Probe) {
	if !c.roi || !c.inIter {
		return
	}
	warmup := c.iterIdx < c.dropFirst
	for _, u := range c.units {
		st := &c.states[u]
		st.samples++
		if warmup {
			continue
		}
		row := st.spec.row(p, st.row[:0])
		// A row equal to the previous one only extends the repeat run:
		// it has no new values. An empty first row of an iteration matches the emptied last row.
		// A changed row streams the repeat run, its shift k and its
		// appended suffix (snapshot.HashTimed), and becomes the last row
		// by trading buffers, so no row is copied.
		if slices.Equal(row, st.last) {
			st.repeat++
			st.row = row
		} else {
			k := shift(st.last, row)
			st.timed.WriteUint64(st.repeat)
			st.timed.WriteUint64(uint64(k))
			st.timed.WriteRow(row[len(st.last)-k:])
			st.repeat = 0
			st.events(p, row, k)
			st.row, st.last = st.last, row
		}
		if st.spec.timedRuns {
			st.updateRuns(row)
		}
	}
	for _, e := range p.StoreQueue() {
		if e.Valid {
			c.writers.insert(e.Addr, e.PC, 0)
		}
	}
	for _, e := range p.LoadQueue() {
		if e.Valid {
			c.readers.insert(e.Addr, e.PC, 0)
		}
	}
}

// shift returns the smallest k such that last[k:] is a prefix of row:
// the number of values retired from last's head, when row is last with
// values retired from the head and appended at the tail.
func shift(last, row []uint64) int {
	for k := max(0, len(last)-len(row)); k < len(last); k++ {
		if last[k] == row[0] && slices.Equal(last[k+1:], row[1:len(last)-k]) {
			return k
		}
	}
	return len(last)
}

// events streams the values of row that were absent from the previous
// row last into the event recorder and their keys' provenance streams.
// row is last[k:] followed by a suffix, and every value of last[k:] is
// in last, so only the suffix is scanned, in row order, each value
// against the whole of last: a value twice in it is an event twice.
// Suffixes are a few values and rows a few dozen, so a linear scan
// beats keeping a count table of last in step.
func (st *unitState) events(p *sim.Probe, row []uint64, k int) {
	spec := st.spec
	// Units with a slot-aligned PC row attribute each value to the
	// instruction that produced it; for the PC-valued units the row is
	// its own attribution; for the rest events are keyed by the
	// observed value and resolved through Attribution() afterwards.
	var pcRow []uint64
	if spec.pcs != nil {
		pcRow = spec.pcs(p, st.pcRow[:0])
		st.pcRow = pcRow
	} else if spec.kind == provDirect {
		pcRow = row
	}
	start := len(st.last) - k
	for i := start; i < len(row); i++ {
		v := row[i]
		if v != 0 && !slices.Contains(st.last, v) {
			st.evRec.AddValue(v)
			if spec.kind != provNone {
				key := v
				if pcRow != nil {
					key = pcRow[i]
				}
				if key != 0 {
					st.provEvent(key, v)
				}
			}
		}
	}
}

// Results returns the per-unit snapshot evidence in tracked order.
func (c *Collector) Results() []UnitTrace {
	out := make([]UnitTrace, 0, len(c.units))
	for _, u := range c.units {
		st := &c.states[u]
		out = append(out, UnitTrace{
			Unit: u, Full: st.full, NoTiming: st.noT, IterHashes: st.iterHashes,
		})
	}
	return out
}

// SampleCounts returns, per tracked unit, the number of state rows
// sampled inside labeled iterations — the volume the snapshot pipeline
// ingested, surfaced as telemetry.
func (c *Collector) SampleCounts() map[Unit]uint64 {
	out := make(map[Unit]uint64, len(c.units))
	for _, u := range c.units {
		if n := c.states[u].samples; n > 0 {
			out[u] = n
		}
	}
	return out
}

// Iterations returns the kept iteration samples in execution order.
func (c *Collector) Iterations() []IterSample {
	out := make([]IterSample, len(c.iters))
	copy(out, c.iters)
	return out
}

// ProvStream is the per-iteration event evidence attributed to one key
// of one unit. For direct units the key is a program counter; for
// value-keyed units it is the observed value (a byte, line or page
// address) to be resolved through Attribution. Iters holds the kept
// iterations (indices into Iterations) during which the key saw at
// least one event, and Hashes the siphash digest of that iteration's
// event-value stream; iterations not listed implicitly hashed to
// EmptyStreamHash.
type ProvStream struct {
	Key    uint64
	Events uint64
	Iters  []int32
	Hashes []uint64
}

// UnitProvenance is the per-key provenance evidence of one unit.
type UnitProvenance struct {
	Unit    Unit
	Direct  bool // keys are PCs (no address resolution needed)
	Streams []ProvStream
}

// EmptyStreamHash is the implicit stream digest of a kept iteration
// during which a key saw no events.
func EmptyStreamHash() uint64 {
	var h siphash.Hasher
	h.Reset(siphash.DefaultKey)
	return h.Sum64()
}

// Provenance returns the collector's per-unit, per-key event-stream
// evidence; it is MergeProvenance of the one collector.
func (c *Collector) Provenance() []UnitProvenance { return MergeProvenance(c) }

// MergeProvenance returns the per-unit, per-key event-stream evidence of
// the runs' collectors for instruction-level leakage attribution, as if
// one collector had seen every run in order: a record's iteration index
// is shifted by the kept iterations of every earlier collector, so it
// indexes the concatenation of their Iterations. The output is
// deterministically ordered (units in tracked order, keys ascending).
// Units whose values carry no attributable key (ROB occupancy,
// fill-buffer data) are omitted, and so are keys seen only in
// discarded iterations. The collectors must track the same units.
func MergeProvenance(cols ...*Collector) []UnitProvenance {
	if len(cols) == 0 {
		return nil
	}
	units := cols[0].units
	out := make([]UnitProvenance, 0, len(units))
	for _, u := range units {
		spec := &unitSpecs[u]
		if spec.kind == provNone {
			continue
		}
		// One pass over the runs maps every run-local stream to its
		// key's merged stream, counting records and summing events.
		// The merged streams with records, in key order, then get
		// presized subslices of one Iters/Hashes pair, and at[j] turns
		// from merged stream j's count into its position in kept; a
		// second pass fills the subslices in run order.
		var index u64set
		n0 := len(cols[0].states[u].prov)
		keys, events, at := make([]uint64, 0, n0), make([]uint64, 0, n0), make([]int32, 0, n0)
		local := make([][]int32, len(cols))
		records := 0
		for ci, c := range cols {
			st := &c.states[u]
			local[ci] = make([]int32, len(st.prov))
			for i := range st.prov {
				ps := &st.prov[i]
				// A collector's keys are distinct, so one collector
				// needs no index.
				j := int32(len(keys))
				if len(cols) > 1 {
					j, _ = index.insert(ps.key, 0, j)
				}
				if j == int32(len(keys)) {
					keys, events, at = append(keys, ps.key), append(events, 0), append(at, 0)
				}
				events[j] += ps.events
				local[ci][i] = j
			}
			for _, rec := range st.provLog {
				at[local[ci][rec.stream]]++
			}
			records += len(st.provLog)
		}
		order := make([]int32, 0, len(keys))
		for j, n := range at {
			if n > 0 {
				order = append(order, int32(j))
			}
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		iters := make([]int32, records)
		hashes := make([]uint64, records)
		kept := make([]ProvStream, len(order))
		off := 0
		for k, j := range order {
			end := off + int(at[j])
			kept[k] = ProvStream{Key: keys[j], Events: events[j],
				Iters: iters[off:off:end], Hashes: hashes[off:off:end]}
			at[j], off = int32(k), end
		}
		base := int32(0)
		for ci, c := range cols {
			for _, rec := range c.states[u].provLog {
				s := &kept[at[local[ci][rec.stream]]]
				s.Iters = append(s.Iters, base+rec.iter)
				s.Hashes = append(s.Hashes, rec.hash)
			}
			base += int32(len(c.iters))
		}
		out = append(out, UnitProvenance{Unit: u, Direct: spec.kind == provDirect, Streams: kept})
	}
	return out
}

// Attribution returns the memory-access attribution gathered inside the
// region of interest: per address, the sorted PCs of the stores
// (writers) and loads (readers) that produced it.
func (c *Collector) Attribution() (writers, readers map[uint64][]uint64) {
	return flattenAttribution(&c.writers), flattenAttribution(&c.readers)
}

func flattenAttribution(pairs *u64set) map[uint64][]uint64 {
	out := make(map[uint64][]uint64)
	pairs.each(func(addr, pc uint64, _ int32) { out[addr] = append(out[addr], pc) })
	for _, pcs := range out {
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	}
	return out
}
