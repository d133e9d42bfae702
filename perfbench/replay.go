package main

import (
	"fmt"
	"sort"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/features"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
	"microsampler/internal/stats"
	"microsampler/internal/trace"
)

// The traced run measures each layer from outside the program: it
// replays a verification through the layers' public functions, in the
// order core.Verify composes them, and times every call. The replay's
// digest must equal core.Verify's, so the split describes the real
// pipeline and not an imitation of it.

// verifyShape is the part of core.Options a replay needs, with defaults
// already resolved.
type verifyShape struct {
	cfg        sim.Config
	runs       int
	warmup     int // iterations dropped per run (core's default is 2)
	seedOffset int
}

// options is the core.Options that verifies the same tuple.
func (s verifyShape) options() core.Options {
	warmup := s.warmup
	if warmup == 0 {
		warmup = core.NoWarmup
	}
	return core.Options{Config: s.cfg, Runs: s.runs, Warmup: warmup, SeedOffset: s.seedOffset, Parallel: 1}
}

// maxCycles is core.Verify's default per-run bound.
const maxCycles = 20_000_000

// layerSplit accumulates the per-layer time and work of replayed
// verifications.
type layerSplit struct {
	ops int
	// Wall time of each layer's calls, summed.
	assemble, simSetup, simRun, tracedRun, results, analyze, extract, render time.Duration
	// replayWall is the replays' total wall time; plainWall the wall time
	// of the same operations without tracing.
	replayWall, plainWall time.Duration
	keyTime               time.Duration
	keys                  int
	machines              int
	// untracedSetup is the machine set-up time of the untraced passes.
	untracedSetup time.Duration
	instructions  int64
	counts        counts
}

// spanSum is the replay time the layer spans account for.
func (l *layerSplit) spanSum() time.Duration {
	return l.assemble + l.simSetup + l.simRun + l.tracedRun + l.results + l.analyze + l.extract + l.render
}

func (l *layerSplit) add(o *layerSplit) {
	l.ops += o.ops
	l.assemble += o.assemble
	l.simSetup += o.simSetup
	l.simRun += o.simRun
	l.tracedRun += o.tracedRun
	l.results += o.results
	l.analyze += o.analyze
	l.extract += o.extract
	l.render += o.render
	l.replayWall += o.replayWall
	l.plainWall += o.plainWall
	l.keyTime += o.keyTime
	l.keys += o.keys
	l.machines += o.machines
	l.untracedSetup += o.untracedSetup
	l.instructions += o.instructions
	l.counts.SimCycles += o.counts.SimCycles
	l.counts.TraceRows += o.counts.TraceRows
	l.counts.Unique += o.counts.Unique
	l.counts.TableCols += o.counts.TableCols
	l.counts.ReportBytes += o.counts.ReportBytes
}

// metrics renders the split of the replayed operations. The msd and
// cluster layers are not on these paths; their metrics read zero.
func (l *layerSplit) metrics() map[string]metric {
	ops := float64(max(l.ops, 1))
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	cycles := float64(max(l.counts.SimCycles, 1))
	rows := float64(max(l.counts.TraceRows, 1))
	tracing := float64(l.tracedRun - l.simRun)
	// The replay runs every simulation twice; without its untraced pass
	// it does the same work as the plain verification plus the spans.
	comparable := l.replayWall - l.simRun - l.untracedSetup
	m := map[string]metric{
		"asm.assemble_ms":           {perOp(l.assemble), "ms"},
		"sim.setup_ms":              {ms(l.simSetup) / float64(max(l.machines, 1)), "ms"},
		"sim.ns_per_cycle":          {float64(l.simRun) / cycles, "ns"},
		"sim.ipc":                   {float64(l.instructions) / cycles, "instr/cycle"},
		"trace.ns_per_cycle":        {tracing / cycles, "ns"},
		"trace.ns_per_row":          {tracing / rows, "ns"},
		"snapshot.results_ms":       {perOp(l.results), "ms"},
		"stats.analyze_ms":          {perOp(l.analyze), "ms"},
		"features.extract_ms":       {perOp(l.extract), "ms"},
		"report.render_ms":          {perOp(l.render), "ms"},
		"cache.key_us":              {float64(l.keyTime) / float64(time.Microsecond) / float64(max(l.keys, 1)), "us"},
		"core.unaccounted_frac":     {ratio(float64(l.replayWall-l.spanSum()), float64(l.replayWall)), "frac"},
		"bench.trace_overhead_frac": {ratio(float64(comparable), float64(l.plainWall)) - 1, "frac"},
	}
	for k, v := range idleLayers() {
		m[k] = v
	}
	return m
}

// idleLayers are the daemon-side metrics, zero on workloads that do not
// go through msd.
func idleLayers() map[string]metric {
	return map[string]metric{
		"cache.hit_frac":         {0, "frac"},
		"cache.hit_latency_ms":   {0, "ms"},
		"msd.submit_ms":          {0, "ms"},
		"msd.queue_wait_ms":      {0, "ms"},
		"msd.run_ms":             {0, "ms"},
		"msd.client_overhead_ms": {0, "ms"},
		"msd.polls_per_op":       {0, "1/op"},
		"msd.rejected_frac":      {0, "frac"},
		"cluster.batch_ms":       {0, "ms"},
		"cluster.point_ms":       {0, "ms"},
		"cluster.remote_frac":    {0, "frac"},
		"cluster.extra_attempts": {0, "attempts"},
	}
}

// renderFunc renders a replayed report's artifacts, returning their
// total size in bytes.
type renderFunc func(rep *core.Report) (int, error)

// renderDigest renders the report digest, paper-suite's report layer.
func renderDigest(rep *core.Report) (int, error) {
	data, err := digestJSON(rep)
	return len(data), err
}

func digestJSON(rep *core.Report) ([]byte, error) {
	dg, err := report.BuildDigest(rep)
	if err != nil {
		return nil, err
	}
	return dg.JSON()
}

// replay verifies w through the layers' public functions, recording the
// time and work of each layer in l; render, when not nil, stands for the
// report layer. Every run is simulated twice from the same inputs: once
// untraced, which times the simulator alone, and once with a
// trace.Collector, whose extra time is the sampling cost.
func replay(w core.Workload, s verifyShape, render renderFunc, l *layerSplit) (*core.Report, error) {
	start := time.Now()
	defer func() { l.replayWall += time.Since(start) }()
	units := trace.AllUnits()

	t := time.Now()
	prog, err := asm.Assemble(w.Source)
	l.assemble += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", w.Name, err)
	}
	rep := &core.Report{
		Workload:     w.Name,
		Config:       s.cfg.Name,
		Runs:         s.runs,
		Program:      prog,
		Samples:      make(map[trace.Unit]uint64, len(units)),
		IterHashes:   make(map[trace.Unit][]uint64, len(units)),
		StoreWriters: make(map[uint64][]uint64),
		LoadReaders:  make(map[uint64][]uint64),
	}
	full := make(map[trace.Unit]*snapshot.Store, len(units))
	noT := make(map[trace.Unit]*snapshot.Store, len(units))
	for _, u := range units {
		full[u] = snapshot.NewStore()
		noT[u] = snapshot.NewStore()
	}

	cols := make([]*trace.Collector, s.runs)
	for run := 0; run < s.runs; run++ {
		before := l.simSetup
		plain, err := machine(w, s, prog, run, l)
		l.untracedSetup += l.simSetup - before
		if err != nil {
			return nil, err
		}
		t = time.Now()
		want, err := plain.Run(maxCycles)
		l.simRun += time.Since(t)
		if err := exited(w, run, want, err); err != nil {
			return nil, err
		}

		traced, err := machine(w, s, prog, run, l)
		if err != nil {
			return nil, err
		}
		col := trace.NewCollector(trace.WithUnits(units...), trace.WithWarmupIterations(s.warmup))
		traced.SetTracer(col)
		t = time.Now()
		res, err := traced.Run(maxCycles)
		l.tracedRun += time.Since(t)
		if err := exited(w, run, res, err); err != nil {
			return nil, err
		}
		if res.Cycles != want.Cycles || res.Instructions != want.Instructions {
			return nil, fmt.Errorf("%s run %d: tracing changed execution: %d cycles/%d instructions traced, %d/%d untraced",
				w.Name, run, res.Cycles, res.Instructions, want.Cycles, want.Instructions)
		}
		rep.Sim.Cycles += res.Cycles
		rep.Sim.Instructions += res.Instructions
		cols[run] = col
	}
	rep.SimCycles = rep.Sim.Cycles
	l.counts.SimCycles += rep.Sim.Cycles
	l.instructions += int64(rep.Sim.Instructions)

	// Merge in run order, as core.Verify does.
	t = time.Now()
	prov := provMerger{}
	for _, col := range cols {
		for _, ut := range col.Results() {
			full[ut.Unit].Merge(ut.Full)
			noT[ut.Unit].Merge(ut.NoTiming)
			rep.IterHashes[ut.Unit] = append(rep.IterHashes[ut.Unit], ut.IterHashes...)
		}
		for u, n := range col.SampleCounts() {
			rep.Samples[u] += n
			l.counts.TraceRows += int64(n)
		}
		prov.add(col.Provenance(), len(rep.Iterations))
		rep.Iterations = append(rep.Iterations, col.Iterations()...)
		writers, readers := col.Attribution()
		mergeAttribution(rep.StoreWriters, writers)
		mergeAttribution(rep.LoadReaders, readers)
	}
	rep.Provenance = prov.flatten(units)
	l.results += time.Since(t)
	if len(rep.Iterations) == 0 {
		return nil, fmt.Errorf("%s: %w", w.Name, core.ErrNoIterations)
	}

	t = time.Now()
	for _, u := range units {
		ur := core.UnitResult{Unit: u, Table: tableOf(full[u]), Store: full[u], StoreNoTiming: noT[u]}
		ur.Assoc = ur.Table.Analyze()
		ur.AssocNoTiming = tableOf(noT[u]).Analyze()
		rep.Units = append(rep.Units, ur)
		l.counts.Unique += int64(full[u].Unique())
		l.counts.TableCols += int64(ur.Table.Cols())
	}
	l.analyze += time.Since(t)

	t = time.Now()
	for i := range rep.Units {
		ur := &rep.Units[i]
		if ur.Assoc.Significant() {
			ur.UniqueFeatures = features.Uniqueness(ur.Store)
			ur.Ordering = features.Ordering(ur.StoreNoTiming)
		}
	}
	l.extract += time.Since(t)

	if render != nil {
		t = time.Now()
		n, err := render(rep)
		l.render += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", w.Name, err)
		}
		l.counts.ReportBytes += int64(n)
	}
	return rep, nil
}

// machine builds, loads and initialises one simulated core for run.
func machine(w core.Workload, s verifyShape, prog *asm.Program, run int, l *layerSplit) (*sim.Machine, error) {
	t := time.Now()
	defer func() { l.simSetup += time.Since(t); l.machines++ }()
	m, err := sim.New(s.cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(prog); err != nil {
		return nil, err
	}
	if w.Setup != nil {
		if err := w.Setup(s.seedOffset+run, m, prog); err != nil {
			return nil, fmt.Errorf("%s run %d setup: %w", w.Name, run, err)
		}
	}
	return m, nil
}

func exited(w core.Workload, run int, res sim.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s run %d: %w", w.Name, run, err)
	}
	if res.ExitCode != 0 {
		return fmt.Errorf("%s run %d: program exited with code %d", w.Name, run, res.ExitCode)
	}
	return nil
}

// tableOf builds a store's contingency table with classes in sorted
// order, as core does: the statistics sum floats in insertion order.
func tableOf(s *snapshot.Store) *stats.Table {
	t := stats.NewTable()
	for _, e := range s.Entries() {
		classes := make([]uint64, 0, len(e.CountByClass))
		for class := range e.CountByClass {
			classes = append(classes, class)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, class := range classes {
			t.Add(class, e.Hash, e.CountByClass[class])
		}
	}
	return t
}

// provMerger folds per-run provenance streams together, shifting each
// run's iteration indices by the iterations merged before it.
type provMerger struct {
	units map[trace.Unit]*provAcc
}

type provAcc struct {
	direct  bool
	streams map[uint64]*trace.ProvStream
	keys    []uint64
}

func (pm *provMerger) add(prov []trace.UnitProvenance, iterBase int) {
	if pm.units == nil {
		pm.units = make(map[trace.Unit]*provAcc)
	}
	for _, up := range prov {
		acc := pm.units[up.Unit]
		if acc == nil {
			acc = &provAcc{direct: up.Direct, streams: make(map[uint64]*trace.ProvStream)}
			pm.units[up.Unit] = acc
		}
		for _, s := range up.Streams {
			dst := acc.streams[s.Key]
			if dst == nil {
				dst = &trace.ProvStream{Key: s.Key}
				acc.streams[s.Key] = dst
				acc.keys = append(acc.keys, s.Key)
			}
			dst.Events += s.Events
			for i, it := range s.Iters {
				dst.Iters = append(dst.Iters, it+int32(iterBase))
				dst.Hashes = append(dst.Hashes, s.Hashes[i])
			}
		}
	}
}

func (pm *provMerger) flatten(units []trace.Unit) []trace.UnitProvenance {
	out := make([]trace.UnitProvenance, 0, len(pm.units))
	for _, u := range units {
		acc := pm.units[u]
		if acc == nil {
			continue
		}
		sort.Slice(acc.keys, func(i, j int) bool { return acc.keys[i] < acc.keys[j] })
		up := trace.UnitProvenance{Unit: u, Direct: acc.direct, Streams: make([]trace.ProvStream, 0, len(acc.keys))}
		for _, k := range acc.keys {
			up.Streams = append(up.Streams, *acc.streams[k])
		}
		out = append(out, up)
	}
	return out
}

// mergeAttribution unions each address's sorted PC list into dst.
func mergeAttribution(dst, src map[uint64][]uint64) {
	for addr, pcs := range src {
		dst[addr] = unionSorted(dst[addr], pcs)
	}
}

func unionSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
