// Package sim implements a deterministic, cycle-level simulator of an
// out-of-order RISC-V core modeled after the Berkeley BOOM design. It is
// the substrate standing in for the paper's Verilator RTL simulation of
// Chipyard/BOOM: a superscalar front end with gshare branch prediction,
// explicit register renaming, a reorder buffer, an issue window, load and
// store queues with forwarding, parameterised L1 caches with MSHRs and a
// load-fill buffer, a next-line prefetcher, a data TLB, and speculative
// execution with full squash-and-recover on branch mispredictions.
//
// All microarchitectural state that the MicroSampler analysis tracks
// (Table IV of the paper) is observable each cycle through the Tracer
// interface, mirroring the Chisel printf instrumentation of the original
// system.
package sim

import (
	"fmt"
	"strings"
)

// Config parameterises the core, following Table III of the paper.
type Config struct {
	Name string

	// Front end.
	FetchWidth       int
	DecodeWidth      int
	IssueWidth       int
	RetireWidth      int
	FetchBufferSize  int
	BranchPredEnts   int // gshare PHT entries
	BTBEntries       int
	ICacheSets       int
	ICacheWays       int
	ICacheFetchBytes int

	// Back end.
	ROBEntries int
	IntPRF     int
	LDQEntries int
	STQEntries int
	LFBEntries int

	// Memory system.
	DCacheSets  int
	DCacheWays  int
	MSHREntries int
	TLBEntries  int
	LineBytes   int

	// Functional units.
	NumALU int
	NumMul int
	NumDiv int
	NumAGU int

	// Latencies, in cycles.
	ICacheHitLat  int
	DCacheHitLat  int
	MissLat       int
	TLBMissLat    int
	MulLat        int
	DivLat        int
	DataDepDivide bool // if set, divide latency depends on operand widths

	// Prefetchers. NextLinePrefetcher probes line+1 on every demand
	// access; StridePrefetcher trains a per-PC stride table and, once a
	// stream is confident, runs ahead of it by one stride. Both occupy
	// dedicated tracker slots plus a fill-buffer entry and never delay
	// demand traffic.
	NextLinePrefetcher bool
	StridePrefetcher   bool

	// TAGEPredictor replaces the gshare direction predictor with a TAGE
	// predictor: a bimodal base table plus tagged tables indexed by
	// geometrically increasing global history lengths. Long-history
	// tables make branch predictions sensitive to outcomes far beyond
	// gshare's 12-bit window — a wider leakage surface, observed through
	// the TAGE-PRED trace unit.
	TAGEPredictor bool

	// FastBypass enables the paper's "fast bypass" optimisation
	// (Section VII-B): an AND whose available operand is zero is folded
	// at rename time — its result is written immediately, dependents
	// wake up at once, and it shares a reorder-buffer slot rather than
	// executing on an ALU.
	FastBypass bool
}

// MegaBoom returns the MegaBoom configuration from Table III.
func MegaBoom() Config {
	return Config{
		Name:               "MegaBoom",
		FetchWidth:         8,
		DecodeWidth:        4,
		IssueWidth:         4,
		RetireWidth:        4,
		FetchBufferSize:    32,
		BranchPredEnts:     2048,
		BTBEntries:         256,
		ICacheSets:         64,
		ICacheWays:         8,
		ICacheFetchBytes:   16,
		ROBEntries:         128,
		IntPRF:             128 + 32,
		LDQEntries:         32,
		STQEntries:         32,
		LFBEntries:         64,
		DCacheSets:         64,
		DCacheWays:         8,
		MSHREntries:        8,
		TLBEntries:         32,
		LineBytes:          64,
		NumALU:             4,
		NumMul:             1,
		NumDiv:             1,
		NumAGU:             2,
		ICacheHitLat:       1,
		DCacheHitLat:       2,
		MissLat:            20,
		TLBMissLat:         8,
		MulLat:             3,
		DivLat:             16,
		NextLinePrefetcher: true,
	}
}

// SmallBoom returns the SmallBoom configuration from Table III.
func SmallBoom() Config {
	c := MegaBoom()
	c.Name = "SmallBoom"
	c.FetchWidth = 4
	c.DecodeWidth = 1
	c.IssueWidth = 1
	c.RetireWidth = 1
	c.FetchBufferSize = 8
	c.ROBEntries = 32
	c.IntPRF = 52 + 32
	c.LDQEntries = 8
	c.STQEntries = 8
	c.LFBEntries = 8
	c.DCacheWays = 4
	c.MSHREntries = 4
	c.TLBEntries = 8
	c.NumALU = 1
	c.NumAGU = 1
	return c
}

// ConfigByName decodes a configuration name, case-insensitively: "",
// "mega" and "megaboom" select MegaBoom, "small" and "smallboom"
// SmallBoom.
func ConfigByName(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "", "mega", "megaboom":
		return MegaBoom(), nil
	case "small", "smallboom":
		return SmallBoom(), nil
	}
	return Config{}, fmt.Errorf("unknown config %q (mega or small)", name)
}

// StateBits estimates the number of microarchitectural state bits of the
// configured design, used by the scalability experiment (Table VII).
func (c Config) StateBits() int {
	bits := 0
	bits += c.IntPRF * 64                                 // physical register file
	bits += c.ROBEntries * 80                             // ROB payload
	bits += (c.LDQEntries + c.STQEntries) * (64 + 64 + 8) // LSQ addr+data+meta
	bits += c.LFBEntries * (c.LineBytes*8 + 64)           // fill buffer
	bits += c.FetchBufferSize * 48                        // fetch buffer
	bits += c.predictorBits()
	bits += c.BTBEntries * 96 // BTB tags+targets
	bits += c.DCacheSets * c.DCacheWays * (c.LineBytes*8 + 64)
	bits += c.ICacheSets * c.ICacheWays * (c.LineBytes*8 + 64)
	bits += c.MSHREntries * 80
	bits += c.TLBEntries * 128
	return bits
}

// CoreStateBits estimates the state bits of the core's pipeline
// structures only (ROB, register file, queues, predictors), excluding
// the cache data arrays that are identical across the Table III
// configurations — the paper's "size of structures (e.g., ROB)" metric
// under which MegaBoom is roughly 4x SmallBoom.
func (c Config) CoreStateBits() int {
	bits := 0
	bits += c.IntPRF * 64
	bits += c.ROBEntries * 80
	bits += (c.LDQEntries + c.STQEntries) * (64 + 64 + 8)
	bits += c.LFBEntries * (c.LineBytes*8 + 64)
	bits += c.FetchBufferSize * 48
	bits += c.MSHREntries * 80
	bits += c.TLBEntries * 128
	return bits
}

// predictorBits sizes the direction-predictor state: gshare counters by
// default, or the TAGE base + tagged tables (counter, tag, useful bits
// per entry) when TAGEPredictor is set. The stride table rides along
// because it is the other optional model with real state.
func (c Config) predictorBits() int {
	bits := 0
	if c.TAGEPredictor {
		bits += c.BranchPredEnts * 2 // bimodal base
		perEntry := 3 + tageTagBits + 2
		bits += tageNumTables * (c.BranchPredEnts / tageTableDivisor) * perEntry
	} else {
		bits += c.BranchPredEnts * 2 // gshare counters
	}
	if c.StridePrefetcher {
		bits += spfTableEntries * (64 + 64 + 64 + 2) // pc, last addr, stride, conf
	}
	return bits
}

func (c Config) validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.FetchWidth > 0, "FetchWidth must be positive"},
		{c.DecodeWidth > 0, "DecodeWidth must be positive"},
		{c.IssueWidth > 0, "IssueWidth must be positive"},
		{c.RetireWidth > 0, "RetireWidth must be positive"},
		{c.ROBEntries > 1, "ROBEntries must exceed 1"},
		{c.IntPRF >= 64, "IntPRF must be at least 64"},
		{c.LDQEntries > 0 && c.STQEntries > 0, "LSQ entries must be positive"},
		{c.LineBytes > 0 && c.LineBytes&(c.LineBytes-1) == 0, "LineBytes must be a power of two"},
		{c.DCacheSets > 0 && c.DCacheSets&(c.DCacheSets-1) == 0, "DCacheSets must be a power of two"},
		{c.BranchPredEnts > 0 && c.BranchPredEnts&(c.BranchPredEnts-1) == 0, "BranchPredEnts must be a power of two"},
		{c.NumALU > 0 && c.NumAGU > 0 && c.NumMul > 0 && c.NumDiv > 0, "FU counts must be positive"},
		{!c.TAGEPredictor || c.BranchPredEnts >= 4*tageTableDivisor,
			"TAGEPredictor needs BranchPredEnts large enough for the tagged tables"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return &ConfigError{Msg: ch.msg}
		}
	}
	return nil
}

// ConfigError reports an invalid configuration.
type ConfigError struct{ Msg string }

func (e *ConfigError) Error() string { return "sim: invalid config: " + e.Msg }
