package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
)

// Machine couples a core with memory and a loaded program; it is the
// top-level entry point of the simulator.
type Machine struct {
	cfg    Config
	mem    *Memory
	core   *Core
	flight *FlightRecorder
	obs    func(delta int64)
}

// ErrMaxCycles is returned when a run exceeds its cycle budget.
var ErrMaxCycles = errors.New("sim: exceeded maximum cycle budget")

// New creates a machine with the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mem := NewMemory()
	return &Machine{cfg: cfg, mem: mem, core: newCore(cfg, mem)}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory returns the machine's physical memory, for harnesses that need
// to initialise inputs or inspect outputs.
func (m *Machine) Memory() *Memory { return m.mem }

// SetTracer attaches a per-cycle tracer (may be nil).
func (m *Machine) SetTracer(t Tracer) { m.core.tracer = t }

// SetCycleObserver installs a callback receiving batches of simulated
// cycle progress (may be nil). RunContext flushes the delta since the
// last flush every progressInterval cycles and once more on every exit
// path, so an observer sees the complete cycle count of a run without
// per-cycle overhead. The callback runs on the simulation goroutine and
// must be cheap.
func (m *Machine) SetCycleObserver(fn func(delta int64)) { m.obs = fn }

// LoadProgram installs an assembled program image and resets the PC and
// stack pointer. Microarchitectural state (caches, predictors) is left
// as-is, so a fresh Machine starts from the paper's "reset state".
func (m *Machine) LoadProgram(p *asm.Program) error {
	if len(p.Text) == 0 {
		return errors.New("sim: empty text segment")
	}
	m.mem.WriteBytes(p.TextBase, p.Text)
	m.core.textBase = p.TextBase
	m.core.textPages = m.core.textPages[:0]
	for pn := p.TextBase / pageBytes; pn <= (p.TextBase+uint64(len(p.Text))-1)/pageBytes; pn++ {
		m.core.textPages = append(m.core.textPages, m.mem.page(pn*pageBytes, false))
	}
	m.core.text = make([]predecoded, len(p.Text)/4)
	for i := range m.core.text {
		w := binary.LittleEndian.Uint32(p.Text[4*i:])
		inst, err := isa.Decode(w)
		m.core.text[i] = predecoded{w, inst, err == nil}
	}
	if len(p.Data) > 0 {
		m.mem.WriteBytes(p.DataBase, p.Data)
	}
	m.core.fetchPC = p.Entry
	m.setReg(isa.SP, p.StackTop)
	return nil
}

// setReg writes an architectural register in both the renamed and
// committed state; only valid before execution starts.
func (m *Machine) setReg(r isa.Reg, v uint64) {
	p := m.core.rat[r]
	m.core.prfVal[p] = v
	m.core.prfReady[p] = 0
	m.core.archRegs[r] = v
}

// Result summarises a completed run.
type Result struct {
	Cycles       int64
	Instructions uint64
	ExitCode     uint64
	Output       []byte
	Branches     uint64
	Mispredicts  uint64
	DCacheHits   uint64
	DCacheMisses uint64
	TLBMisses    uint64
	Prefetches   uint64
	// PrefetchesUseful counts prefetched lines that later served a
	// demand access; PrefetchesUseless counts prefetched lines evicted
	// without ever being demanded (the prefetcher's mispredictions).
	PrefetchesUseful  uint64
	PrefetchesUseless uint64
	// Stride-prefetcher issue and accuracy counters, mirroring the
	// next-line counters above. Zero unless Config.StridePrefetcher.
	StridePrefetches        uint64
	StridePrefetchesUseful  uint64
	StridePrefetchesUseless uint64
	// LSUReplays counts load/store issue attempts bounced because every
	// MSHR or fill-buffer slot was busy.
	LSUReplays uint64
	// MSHRHighWater is the peak number of simultaneously outstanding
	// demand misses.
	MSHRHighWater int
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Run executes until the program exits or maxCycles elapse.
func (m *Machine) Run(maxCycles int64) (Result, error) {
	return m.RunContext(context.Background(), maxCycles)
}

// progressInterval is how often (in simulated cycles) the run loop
// flushes the cycle observer and polls for cancellation: frequent
// enough that a deadline lands within milliseconds of wall time, rare
// enough that the hot path pays nothing measurable per cycle.
const progressInterval = 1024

// RunContext executes until the program exits, maxCycles elapse, or ctx
// is cancelled (checked every progressInterval cycles, so a deadline
// bounds the run in wall time). A cancelled run fails with an error
// wrapping the context's cause.
func (m *Machine) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	c := m.core

	observed := c.cycle
	flushObs := func() {
		if m.obs == nil {
			return
		}
		if d := c.cycle - observed; d > 0 {
			observed = c.cycle
			m.obs(d)
		}
	}
	defer flushObs()

	for !c.halted {
		if c.cycle >= maxCycles {
			return m.result(), fmt.Errorf("%w (%d cycles)", ErrMaxCycles, maxCycles)
		}
		if c.cycle&(progressInterval-1) == 0 {
			flushObs()
			if ctx.Err() != nil {
				return m.result(), fmt.Errorf("sim: run aborted at cycle %d: %w", c.cycle, context.Cause(ctx))
			}
		}
		c.step()
		if m.flight != nil {
			m.flight.record(c)
		}
	}
	return m.result(), c.runErr
}

// Step advances the machine a single cycle; used by fine-grained tests.
func (m *Machine) Step() { m.core.step() }

// Halted reports whether the program has exited.
func (m *Machine) Halted() bool { return m.core.halted }

// Cycle returns the current cycle count.
func (m *Machine) Cycle() int64 { return m.core.cycle }

// ArchReg returns the committed architectural value of a register.
func (m *Machine) ArchReg(r isa.Reg) uint64 { return m.core.archRegs[r] }

func (m *Machine) result() Result {
	nlp, spf := &m.core.dc.trackers[pfNLP], &m.core.dc.trackers[pfSPF]
	return Result{
		Cycles:                  m.core.cycle,
		Instructions:            m.core.retired,
		ExitCode:                m.core.exitCode,
		Output:                  m.core.output,
		Branches:                m.core.branches,
		Mispredicts:             m.core.mispredicts,
		DCacheHits:              m.core.dc.hits,
		DCacheMisses:            m.core.dc.misses,
		TLBMisses:               m.core.dc.tlbMisses,
		Prefetches:              nlp.issued,
		PrefetchesUseful:        nlp.useful,
		PrefetchesUseless:       nlp.useless,
		StridePrefetches:        spf.issued,
		StridePrefetchesUseful:  spf.useful,
		StridePrefetchesUseless: spf.useless,
		LSUReplays:              m.core.lsuReplays,
		MSHRHighWater:           m.core.dc.mshrHighWater,
	}
}
