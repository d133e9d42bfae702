package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"microsampler/internal/sim"
	"microsampler/internal/trace"
)

// ErrReplayDiverged is returned by LoadProvenance when a replayed run
// does not reproduce the verification it replays.
var ErrReplayDiverged = errors.New("core: provenance replay diverged from the verification")

// provReplay is a report's handle for rebuilding its provenance: the
// workload and the defaults-applied options of its verification, minus
// the observers (metrics, span sink, probe, logger, flight recorder),
// and the outcome of the one replay.
type provReplay struct {
	w    Workload
	opts Options

	once sync.Once
	err  error
}

func newProvReplay(w Workload, opts Options) *provReplay {
	opts.Metrics, opts.TraceSink, opts.Probe, opts.Logger = nil, nil, nil, nil
	opts.FlightRecorderFrames = 0
	return &provReplay{w: w, opts: opts}
}

// LoadProvenance fills r.Provenance for a report whose verification did
// not record it (Options.Provenance false). It simulates the report's
// runs again, from reset with the same run indices, under collectors
// that record provenance, and merges their streams in run order. The
// simulator is deterministic, so the replay reproduces the verified
// runs; it must reproduce their kept iterations, every unit's iteration
// hashes and the simulated cycles, or LoadProvenance returns an error
// wrapping ErrReplayDiverged (a workload Setup whose inputs are not a
// function of the run index, say) and leaves Provenance nil. The replay
// runs once per report, and later calls return its outcome; concurrent
// calls wait for the one replay. It does nothing for a report that
// already carries provenance, or that Verify did not build.
func (r *Report) LoadProvenance() error {
	rp := r.replay
	if rp == nil {
		return nil
	}
	rp.once.Do(func() {
		if r.Provenance == nil {
			r.Provenance, rp.err = rp.run(r)
		}
	})
	return rp.err
}

// run replays the verification behind r and returns its merged
// provenance.
func (rp *provReplay) run(r *Report) ([]trace.UnitProvenance, error) {
	ctx := context.Background()
	o := rp.opts
	cols := make([]*trace.Collector, o.Runs)
	results := make([]sim.Result, o.Runs)
	errs := make([]error, o.Runs)
	forEachIndex(ctx, o.Parallel, o.Runs, func(run int) {
		col := trace.NewCollector(trace.WithWarmupIterations(o.Warmup))
		results[run], errs[run] = execRun(ctx, rp.w, o, r.Program, nil, run, col, nil, 0)
		cols[run] = col
	})
	var cycles int64
	var iters []trace.IterSample
	hashes := make(map[trace.Unit][]uint64, len(r.IterHashes))
	for run, col := range cols {
		if errs[run] != nil {
			return nil, fmt.Errorf("core: provenance replay of %s run %d: %w", rp.w.Name, run, errs[run])
		}
		cycles += results[run].Cycles
		iters = append(iters, col.Iterations()...)
		for _, ut := range col.Results() {
			hashes[ut.Unit] = append(hashes[ut.Unit], ut.IterHashes...)
		}
	}
	if cycles != r.Sim.Cycles {
		return nil, fmt.Errorf("%w: %s simulated %d cycles, the verification %d",
			ErrReplayDiverged, rp.w.Name, cycles, r.Sim.Cycles)
	}
	if !slices.Equal(iters, r.Iterations) {
		return nil, fmt.Errorf("%w: %s kept other iterations", ErrReplayDiverged, rp.w.Name)
	}
	for _, u := range trace.AllUnits() {
		if !slices.Equal(hashes[u], r.IterHashes[u]) {
			return nil, fmt.Errorf("%w: %s unit %v hashed other snapshots", ErrReplayDiverged, rp.w.Name, u)
		}
	}
	return trace.MergeProvenance(cols...), nil
}
