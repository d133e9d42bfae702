package core

import (
	"errors"
	"sync/atomic"

	"microsampler/internal/sim"
)

// Stage identifies the pipeline stage a verification is currently in,
// published through RunProbe while Verify runs.
type Stage int32

// Pipeline stages in execution order, plus the two terminal states.
const (
	StageIdle Stage = iota
	StageAssemble
	StageSimulate
	StageMerge
	StageStats
	StageExtract
	StageDone
	StageFailed
)

var stageNames = [...]string{
	StageIdle:     "idle",
	StageAssemble: "assemble",
	StageSimulate: "simulate",
	StageMerge:    "merge",
	StageStats:    "stats",
	StageExtract:  "extract",
	StageDone:     "done",
	StageFailed:   "failed",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// RunProbe is a live progress view of one verification: pass one in
// Options.Probe and read it from any goroutine while Verify runs. All
// fields advance atomically; the cycle counter aggregates simulated
// cycles across runs and (under MeasureStages) both passes,
// so it is monotonically increasing for the lifetime of the
// verification.
type RunProbe struct {
	cycles    atomic.Int64
	stage     atomic.Int32
	runsDone  atomic.Int32
	totalRuns atomic.Int32

	sink func(delta int64)
}

// NewRunProbe returns a probe in the idle stage.
func NewRunProbe() *RunProbe { return &RunProbe{} }

// SetCycleSink installs a callback mirroring every cycle-count delta
// the probe receives (e.g. into a metrics counter). It must be set
// before the verification starts and the callback must be
// goroutine-safe: deltas arrive from simulation workers.
func (p *RunProbe) SetCycleSink(fn func(delta int64)) { p.sink = fn }

// AddCycles advances the simulated-cycle counter; the simulator's cycle
// observer feeds this in progress-interval batches.
func (p *RunProbe) AddCycles(delta int64) {
	p.cycles.Add(delta)
	if p.sink != nil {
		p.sink(delta)
	}
}

// ProbeSnapshot is one consistent-enough reading of a RunProbe (fields
// are loaded individually; each is internally consistent and monotonic).
type ProbeSnapshot struct {
	Cycles    int64
	Stage     Stage
	RunsDone  int
	TotalRuns int
}

// Snapshot reads the probe's current state.
func (p *RunProbe) Snapshot() ProbeSnapshot {
	return ProbeSnapshot{
		Cycles:    p.cycles.Load(),
		Stage:     Stage(p.stage.Load()),
		RunsDone:  int(p.runsDone.Load()),
		TotalRuns: int(p.totalRuns.Load()),
	}
}

func (p *RunProbe) setStage(s Stage) { p.stage.Store(int32(s)) }
func (p *RunProbe) setTotal(n int)   { p.totalRuns.Store(int32(n)) }
func (p *RunProbe) runComplete()     { p.runsDone.Add(1) }

// RunFailure wraps the error of a failed run with the
// flight-recorder post-mortem captured at the moment of failure
// (Options.FlightRecorderFrames must be positive). Extract it from a
// Verify error with errors.As; render the dump with
// telemetry/export.FlightPerfetto. Unwrap exposes the underlying
// error, so failure classification and errors.Is/As chains are
// unaffected by the wrapping.
type RunFailure struct {
	Run  int
	Dump *sim.FlightDump
	Err  error
}

// Error reports the underlying failure.
func (f *RunFailure) Error() string { return f.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (f *RunFailure) Unwrap() error { return f.Err }

// FlightDumpFromError extracts the flight-recorder post-mortem from a
// Verify error, if one is attached.
func FlightDumpFromError(err error) (*sim.FlightDump, bool) {
	var rf *RunFailure
	if errors.As(err, &rf) && rf.Dump != nil {
		return rf.Dump, true
	}
	return nil, false
}
