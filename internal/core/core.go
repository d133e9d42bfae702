// Package core implements the MicroSampler verification pipeline — the
// paper's primary contribution (Section V, Fig. 1):
//
//  1. run the code under test on the cycle-level BOOM simulator while
//     tracing microarchitectural state every cycle,
//  2. partition the trace into per-iteration snapshots labeled with the
//     secret class values,
//  3. build per-unit contingency tables of snapshot-hash frequencies and
//     measure the class association with Cramér's V validated by the
//     chi-squared p-value,
//  4. for units with significant correlation, extract the features
//     (addresses, PCs, activity) responsible via feature uniqueness and
//     feature ordering.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/cache"
	"microsampler/internal/features"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
	"microsampler/internal/stats"
	"microsampler/internal/telemetry"
	"microsampler/internal/trace"
)

// Workload is a program under verification plus its input generator.
type Workload struct {
	// Name identifies the case study (e.g. "ME-V1-CV").
	Name string
	// Source is the RV64 assembly of the program. It must delimit the
	// security-critical region with roi.begin/roi.end and label each
	// algorithmic iteration with iter.begin <class-reg> / iter.end.
	Source string
	// Setup initialises memory for one run (e.g. writes the key and
	// operands at the program's data symbols). run is the 0-based run
	// index. May be nil.
	Setup func(run int, m *sim.Machine, prog *asm.Program) error
}

// NoWarmup is the Warmup sentinel requesting that no iterations be
// dropped. A plain zero keeps the default of 2, so the zero-valued
// Options stay useful; any negative Warmup means "explicitly zero".
const NoWarmup = -1

// ParallelAuto is the Options.Parallel sentinel selecting one worker
// per CPU.
const ParallelAuto = -1

// Progress describes one completed simulation run; see
// Options.OnProgress.
type Progress struct {
	// Run is the 0-based index of the run that just finished; Done of
	// Total runs have completed so far (runs may finish out of order
	// under Parallel > 1, but Done is monotonic).
	Run, Done, Total int
	// Cycles the run simulated and Iterations it kept after warmup.
	Cycles     int64
	Iterations int
	// Elapsed is the wall time since the verification started.
	Elapsed time.Duration
}

// Options configures a verification.
type Options struct {
	// Config is the core configuration (default MegaBoom).
	Config sim.Config
	// Units to track (default: all Table IV units).
	Units []trace.Unit
	// Runs is the number of independent simulations, each starting from
	// reset state with fresh inputs (default 1).
	Runs int
	// Warmup drops the first n labeled iterations of each run (default
	// 2). Use NoWarmup (or any negative value) to keep every iteration;
	// a plain 0 selects the default.
	Warmup int
	// MaxCycles bounds each run (default 20M).
	MaxCycles int64
	// SeedOffset shifts the run index passed to the workload's Setup
	// function: run r calls Setup(SeedOffset+r, ...). Setup functions
	// derive their input RNG seed from the run index, so distinct
	// offsets draw disjoint input sets — the oracle harness uses this
	// to replicate a verification under independent seeds. Progress
	// callbacks and spans still report local run indices.
	SeedOffset int
	// MeasureStages makes Verify execute each run twice — once without
	// tracing — so that the Table VI stage breakdown can separate pure
	// simulation time from trace parsing time. The double execution is
	// attributed per run, so it composes with Parallel > 1: the
	// Simulate/Parse stage totals are then sums of per-run (CPU) time
	// rather than wall time.
	MeasureStages bool
	// Parallel runs up to this many simulations concurrently (each run
	// is an independent machine). 0 or 1 means sequential; ParallelAuto
	// (-1) means one worker per CPU. Results are identical to a
	// sequential run: merging happens in run order. When any run fails,
	// its siblings are cancelled instead of simulating to completion.
	Parallel int

	// RunTimeout bounds the wall time of each run attempt (0 means no
	// bound). An expired attempt fails with context.DeadlineExceeded,
	// which the retry policy retries.
	RunTimeout time.Duration
	// Watchdog, when positive, arms a wall-clock stall detector per run
	// attempt: if the simulator makes no cycle progress for this long
	// (a blocked tracer or cycle observer), the attempt is aborted with
	// a sim.ErrStalled-wrapped error, which the retry policy retries.
	Watchdog time.Duration
	// Retry re-executes run attempts that failed for a host reason — a
	// watchdog stall or a RunTimeout expiry — with exponential backoff
	// and full jitter. Every other failure, a recovered panic included,
	// is deterministic in the simulated execution and fails the run on
	// its first attempt. The zero value disables retrying.
	Retry RetryPolicy
	// FlightRecorderFrames, when positive, attaches a cycle-level flight
	// recorder of that many frames to every run attempt's machine. A
	// failing attempt — error, stall, timeout, panic, nonzero exit —
	// then surfaces as a *RunFailure carrying the post-mortem ring of
	// the last N cycles (extract with FlightDumpFromError; render with
	// telemetry/export.FlightPerfetto). Zero disables the recorder.
	FlightRecorderFrames int
	// Probe, when non-nil, receives the live progress of this
	// verification: simulated cycles, current stage, completed runs and
	// retries, all readable concurrently while Verify runs.
	Probe *RunProbe

	// Cache, when non-nil, serves repeat verifications from a
	// content-addressed result cache instead of re-simulating: before
	// running, Verify hashes the (program, config, seed range,
	// detection-relevant options) tuple — see CacheKey — and a hit
	// returns the cached *Report in microseconds. Cached reports are
	// shared, not copied; callers must treat them as immutable (reports
	// are read-only once built). Hits and misses are counted in Metrics
	// as verify_cache_hits_total / verify_cache_misses_total.
	Cache *cache.LRU

	// Metrics, when non-nil, receives pipeline and simulator counters
	// (cycles, IPC, cache and predictor events, per-unit sample volume,
	// run/stage latency distributions). Accumulation is per run, off
	// the per-cycle hot path.
	Metrics *telemetry.Registry
	// TraceSink, when non-nil, receives every pipeline span as one JSON
	// line (see telemetry.Span). Spans are recorded in Report.Spans
	// regardless; the sink only adds the streaming JSONL output. Sink
	// write errors do not fail the verification.
	TraceSink io.Writer
	// OnProgress, when non-nil, is called after each run completes.
	// Calls are serialised, but may originate from worker goroutines
	// when Parallel > 1.
	OnProgress func(Progress)

	// Logger, when non-nil, receives structured progress and outcome
	// events (run completions, failures, stage durations, the verdict)
	// as slog records. Records may originate from worker goroutines
	// when Parallel > 1; slog handlers are safe for that.
	Logger *slog.Logger
	// RunID tags every log record of this verification with a run_id
	// attribute, correlating daemon logs with the metrics and spans of
	// the same job. Empty means no run_id attribute.
	RunID string
}

// RetryPolicy configures per-run retry of stalled or timed-out attempts.
type RetryPolicy struct {
	// Max is the number of retries allowed per run beyond the first
	// attempt; 0 disables retrying.
	Max int
	// BaseDelay seeds the exponential backoff (default 50ms when
	// Max > 0): before retry n (0-based) the worker sleeps a full-jitter
	// duration drawn uniformly from [0, min(MaxDelay, BaseDelay·2ⁿ)).
	BaseDelay time.Duration
	// MaxDelay caps the backoff window (default 2s; never below
	// BaseDelay).
	MaxDelay time.Duration
}

// Backoff returns the full-jitter delay before retry n (0-based),
// drawn uniformly from [0, min(MaxDelay, BaseDelay·2ⁿ)).
func (p RetryPolicy) Backoff(n int) time.Duration {
	return p.backoffAt(n, rand.Float64())
}

// backoffAt is Backoff with the uniform jitter draw u injected; split
// out so tests can pin the draw.
func (p RetryPolicy) backoffAt(n int, u float64) time.Duration {
	window := p.BaseDelay
	for i := 0; i < n && window < p.MaxDelay; i++ {
		window *= 2
	}
	if window > p.MaxDelay {
		window = p.MaxDelay
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(u * float64(window))
}

// withDefaults validates the options and fills in defaults. Negative
// Runs or MaxCycles, or a Parallel below the ParallelAuto sentinel, are
// programming errors that used to surface as panics (e.g. in
// make([]runOut, opts.Runs)) deep inside Verify. A repeated unit would
// be sampled and merged twice, inflating its contingency table, and an
// unknown one would report a phantom "UNIT?" row. All are rejected here
// with a descriptive error instead.
func (o Options) withDefaults() (Options, error) {
	if o.Runs < 0 {
		return o, fmt.Errorf("core: Options.Runs must be non-negative, got %d", o.Runs)
	}
	if o.MaxCycles < 0 {
		return o, fmt.Errorf("core: Options.MaxCycles must be non-negative, got %d", o.MaxCycles)
	}
	if o.Parallel < ParallelAuto {
		return o, fmt.Errorf("core: Options.Parallel must be >= %d (ParallelAuto), got %d",
			ParallelAuto, o.Parallel)
	}
	if o.RunTimeout < 0 {
		return o, fmt.Errorf("core: Options.RunTimeout must be non-negative, got %v", o.RunTimeout)
	}
	if o.Watchdog < 0 {
		return o, fmt.Errorf("core: Options.Watchdog must be non-negative, got %v", o.Watchdog)
	}
	if o.Retry.Max < 0 || o.Retry.BaseDelay < 0 || o.Retry.MaxDelay < 0 {
		return o, fmt.Errorf("core: Options.Retry fields must be non-negative, got %+v", o.Retry)
	}
	if o.FlightRecorderFrames < 0 {
		return o, fmt.Errorf("core: Options.FlightRecorderFrames must be non-negative, got %d",
			o.FlightRecorderFrames)
	}
	for i, u := range o.Units {
		if !u.Valid() {
			return o, fmt.Errorf("core: Options.Units[%d] is not a tracked unit: %d", i, int(u))
		}
		if slices.Contains(o.Units[:i], u) {
			return o, fmt.Errorf("core: Options.Units repeats unit %s", u)
		}
	}
	if o.Retry.Max > 0 {
		if o.Retry.BaseDelay == 0 {
			o.Retry.BaseDelay = 50 * time.Millisecond
		}
		if o.Retry.MaxDelay == 0 {
			o.Retry.MaxDelay = 2 * time.Second
		}
		if o.Retry.MaxDelay < o.Retry.BaseDelay {
			o.Retry.MaxDelay = o.Retry.BaseDelay
		}
	}
	if o.Config.Name == "" {
		o.Config = sim.MegaBoom()
	}
	if len(o.Units) == 0 {
		o.Units = trace.AllUnits()
	}
	if o.Runs == 0 {
		o.Runs = 1
	}
	if o.Warmup == 0 {
		o.Warmup = 2
	} else if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	return o, nil
}

// UnitResult is the verdict for one microarchitectural unit.
type UnitResult struct {
	Unit trace.Unit

	// Assoc measures the class association of the full (timed)
	// snapshots; AssocNoTiming of the consolidated (timing-free) ones.
	Assoc         stats.Association
	AssocNoTiming stats.Association

	// Table is the contingency table behind Assoc.
	Table *stats.Table

	// Root-cause extraction, populated for units with a significant
	// correlation (Section V-C3).
	UniqueFeatures map[uint64][]uint64
	Ordering       []features.OrderingMismatch

	// Store holds the deduplicated snapshots for further inspection.
	Store         *snapshot.Store
	StoreNoTiming *snapshot.Store
}

// Leaky reports the paper's per-unit verdict.
func (u UnitResult) Leaky() bool { return u.Assoc.Leaky() }

// StageTimes is the Table VI breakdown, enriched with per-run
// distributions so parallel-mode runs remain attributable.
type StageTimes struct {
	Assemble time.Duration // 0: assembling the program under test
	Simulate time.Duration // 1: RTL-equivalent simulation
	Parse    time.Duration // 2: trace extraction and snapshot generation
	Stats    time.Duration // 3: Cramér's V for all tracked structures
	Extract  time.Duration // 4: feature extraction

	// RunWall is the distribution of per-run wall times (traced
	// execution). RunSim and RunParse split each run into pure
	// simulation and trace-parsing shares; they are populated only
	// under MeasureStages.
	RunWall  telemetry.DurStats
	RunSim   telemetry.DurStats
	RunParse telemetry.DurStats
}

// Total returns the end-to-end analysis time.
func (s StageTimes) Total() time.Duration {
	return s.Assemble + s.Simulate + s.Parse + s.Stats + s.Extract
}

// SimStats aggregates the simulator's event counters across runs — the
// microarchitectural behaviour behind the verdicts (and behind the
// pipeline's own performance).
type SimStats struct {
	Cycles                  int64
	Instructions            uint64
	Branches                uint64
	BranchMispredicts       uint64
	DCacheHits              uint64
	DCacheMisses            uint64
	TLBMisses               uint64
	Prefetches              uint64
	PrefetchesUseful        uint64
	PrefetchesUseless       uint64
	StridePrefetches        uint64
	StridePrefetchesUseful  uint64
	StridePrefetchesUseless uint64
	LSUReplays              uint64
	MSHRHighWater           int
}

// IPC returns retired instructions per simulated cycle across all runs.
func (s SimStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// accumulate folds one run's result into the aggregate.
func (s *SimStats) accumulate(r sim.Result) {
	s.Cycles += r.Cycles
	s.Instructions += r.Instructions
	s.Branches += r.Branches
	s.BranchMispredicts += r.Mispredicts
	s.DCacheHits += r.DCacheHits
	s.DCacheMisses += r.DCacheMisses
	s.TLBMisses += r.TLBMisses
	s.Prefetches += r.Prefetches
	s.PrefetchesUseful += r.PrefetchesUseful
	s.PrefetchesUseless += r.PrefetchesUseless
	s.StridePrefetches += r.StridePrefetches
	s.StridePrefetchesUseful += r.StridePrefetchesUseful
	s.StridePrefetchesUseless += r.StridePrefetchesUseless
	s.LSUReplays += r.LSUReplays
	if r.MSHRHighWater > s.MSHRHighWater {
		s.MSHRHighWater = r.MSHRHighWater
	}
}

// Report is the complete verification outcome for a workload.
type Report struct {
	Workload   string
	Config     string
	Units      []UnitResult
	Iterations []trace.IterSample
	Runs       int
	Stages     StageTimes
	SimCycles  int64 // total simulated cycles across runs
	// Retries counts run attempts that stalled or timed out and were
	// re-executed under Options.Retry; 0 when no attempt was retried.
	Retries int

	// Sim aggregates the simulator's event counters across runs.
	Sim SimStats
	// Samples is the number of state rows the tracer ingested per unit.
	Samples map[trace.Unit]uint64
	// IterHashes is, per tracked unit, the full-snapshot hash of every
	// kept iteration, concatenated in run order and aligned with
	// Iterations. The report package bins this sequence into iteration
	// windows to render the leakage heatmap.
	IterHashes map[trace.Unit][]uint64
	// Spans is the pipeline span tree of this verification (per stage
	// and per run); see telemetry.SpanStats for aggregation.
	Spans []telemetry.Span

	// Provenance is, per tracked unit, the per-key event-stream evidence
	// for instruction-level leakage attribution, merged across runs with
	// iteration indices into Iterations. Keys are PCs for direct units
	// and observed values (addresses) for the rest; the report package's
	// BuildProvenance computes per-key Cramér's V over these streams and
	// resolves value keys to instructions.
	Provenance []trace.UnitProvenance

	// Program is the assembled image, kept for symbolising extracted
	// features (PCs to functions, addresses to data symbols).
	Program *asm.Program
	// StoreWriters and LoadReaders attribute each memory address
	// observed in the region of interest to the PCs that stored/loaded
	// it — the paper's step of tracing leaked addresses back to the
	// code that produced them.
	StoreWriters map[uint64][]uint64
	LoadReaders  map[uint64][]uint64
}

// LeakyUnits returns the units flagged as leaky, in Table IV order.
func (r *Report) LeakyUnits() []UnitResult {
	var out []UnitResult
	for _, u := range r.Units {
		if u.Leaky() {
			out = append(out, u)
		}
	}
	return out
}

// AnyLeak reports whether any unit was flagged.
func (r *Report) AnyLeak() bool { return len(r.LeakyUnits()) > 0 }

// Unit returns the result for a specific unit.
func (r *Report) Unit(u trace.Unit) (UnitResult, bool) {
	for _, ur := range r.Units {
		if ur.Unit == u {
			return ur, true
		}
	}
	return UnitResult{}, false
}

// ErrNoIterations is returned when a workload produced no labeled
// iterations (missing or unreached MARK instructions).
var ErrNoIterations = errors.New("core: workload produced no labeled iterations")

// Verify runs the full MicroSampler pipeline on a workload.
func Verify(w Workload, opts Options) (*Report, error) {
	return VerifyContext(context.Background(), w, opts)
}

// VerifyContext is Verify with cancellation: a cancelled context aborts
// between (not within) simulation runs.
func VerifyContext(ctx context.Context, w Workload, opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	verifyStart := time.Now()
	probe := opts.Probe
	if probe == nil {
		probe = NewRunProbe() // discarded: keeps the publish sites branch-free
	}
	probe.setTotal(opts.Runs)
	probe.setStage(StageAssemble)
	lg := opts.Logger
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	if opts.RunID != "" {
		lg = lg.With("run_id", opts.RunID)
	}
	lg = lg.With("workload", w.Name)

	// Content-addressed cache lookup: a hit short-circuits the whole
	// pipeline — assembly, simulation, statistics — and returns the
	// previously computed report. Correct because verification is a pure
	// function of the hashed tuple (the calibration gate pins
	// byte-identical output across runs).
	var cacheKey string
	if opts.Cache != nil {
		cacheKey = cacheKeyWithDefaults(w, opts)
		if v, ok := opts.Cache.Get(cacheKey); ok {
			rep := v.(*Report)
			if opts.Metrics != nil {
				opts.Metrics.Counter("verify_cache_hits_total").Inc()
			}
			if opts.TraceSink != nil {
				ctr := telemetry.NewSpanTracer(opts.TraceSink)
				ctr.StartDetail("verify.cached", 0, -1, cacheKey[:12]).End()
			}
			probe.setStage(StageDone)
			lg.Info("verify served from cache",
				"cache_key", cacheKey[:12], "leaky", rep.AnyLeak(),
				"iterations", len(rep.Iterations), "elapsed", time.Since(verifyStart))
			return rep, nil
		}
		if opts.Metrics != nil {
			opts.Metrics.Counter("verify_cache_misses_total").Inc()
		}
	}

	lg.Info("verify started",
		"config", opts.Config.Name, "runs", opts.Runs,
		"parallel", opts.Parallel, "max_cycles", opts.MaxCycles)

	tr := telemetry.NewSpanTracer(opts.TraceSink)
	root := tr.Start("verify", 0, -1)

	asmSpan := tr.Start("assemble", root.ID(), -1)
	prog, err := asm.Assemble(w.Source)
	asmDur := asmSpan.End()
	if err != nil {
		root.End()
		probe.setStage(StageFailed)
		lg.Error("assemble failed", "err", err)
		return nil, fmt.Errorf("assemble %s: %w", w.Name, err)
	}

	rep := &Report{
		Workload:     w.Name,
		Config:       opts.Config.Name,
		Runs:         opts.Runs,
		Program:      prog,
		Samples:      make(map[trace.Unit]uint64, len(opts.Units)),
		IterHashes:   make(map[trace.Unit][]uint64, len(opts.Units)),
		StoreWriters: make(map[uint64][]uint64),
		LoadReaders:  make(map[uint64][]uint64),
	}
	rep.Stages.Assemble = asmDur

	// Stages 1–2: simulate with tracing, accumulating snapshots.
	full := make(map[trace.Unit]*snapshot.Store, len(opts.Units))
	noT := make(map[trace.Unit]*snapshot.Store, len(opts.Units))
	for _, u := range opts.Units {
		full[u] = snapshot.NewStore()
		noT[u] = snapshot.NewStore()
	}

	probe.setStage(StageSimulate)
	simSpan := tr.Start("simulate", root.ID(), -1)
	type runOut struct {
		col    *trace.Collector
		res    sim.Result
		err    error
		plain  time.Duration // untraced execution (MeasureStages only)
		traced time.Duration // traced execution wall time
	}
	// runCtx is cancelled when the first run fails, so sibling runs —
	// queued or about to start — abort instead of simulating their full
	// cycle budget only to have the result discarded. firstErr keeps the
	// error that triggered cancellation: in run order it may be shadowed
	// by the context.Canceled of an aborted earlier-indexed sibling.
	runCtx, cancelRuns := context.WithCancel(ctx)
	defer cancelRuns()
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancelRuns()
		})
	}
	var progressMu sync.Mutex
	runsDone := 0
	var retriesTotal atomic.Int64
	// attemptOne executes one attempt of one run: the untraced pass
	// (MeasureStages), the traced pass with a fresh collector, and the
	// synthesised parse span. Attempt state never leaks across attempts,
	// so a retried run is indistinguishable from a first try.
	attemptOne := func(run, attempt int, parent uint64) (out runOut) {
		if opts.MeasureStages {
			s := tr.Start("simulate.untraced", parent, run)
			_, err := execRun(runCtx, w, opts, prog, probe, run, attempt, nil, nil, 0)
			out.plain = s.End()
			if err != nil {
				out.err = fmt.Errorf("%s run %d (untraced): %w", w.Name, run, err)
				return out
			}
		}
		col := trace.NewCollector(
			trace.WithUnits(opts.Units...),
			trace.WithWarmupIterations(opts.Warmup),
		)
		tracedStart := time.Now()
		res, err := execRun(runCtx, w, opts, prog, probe, run, attempt, col, tr, parent)
		out.traced = time.Since(tracedStart)
		if err != nil {
			out.err = fmt.Errorf("%s run %d: %w", w.Name, run, err)
			return out
		}
		out.col, out.res = col, res
		if opts.MeasureStages {
			// Attribute the traced-minus-untraced overhead of this run
			// to trace parsing, as a synthesised span.
			parse := out.traced - out.plain
			if parse < 0 {
				parse = 0
			}
			tr.Record("parse", parent, run, tracedStart, parse)
		}
		return out
	}
	runOne := func(run int) (out runOut) {
		// Re-check cancellation here, after the run has been claimed:
		// a worker may have been waiting while a sibling failed.
		if err := runCtx.Err(); err != nil {
			out.err = err
			return out
		}
		runSpan := tr.Start("run", simSpan.ID(), run)
		defer runSpan.End()
		for attempt := 0; ; attempt++ {
			out = attemptOne(run, attempt, runSpan.ID())
			if out.err == nil {
				break
			}
			countFailure(opts.Metrics, out.err)
			if runCtx.Err() != nil || attempt >= opts.Retry.Max || !retryable(out.err) {
				lg.Error("run failed", "run", run, "attempt", attempt, "err", out.err)
				return out
			}
			retriesTotal.Add(1)
			probe.retryObserved()
			if opts.Metrics != nil {
				opts.Metrics.Counter("verify_retries_total").Inc()
			}
			delay := opts.Retry.Backoff(attempt)
			lg.Warn("run attempt failed; retrying", "run", run, "attempt", attempt,
				"class", errClass(out.err), "backoff", delay, "err", out.err)
			retrySpan := tr.StartDetail("run.retry", runSpan.ID(), run,
				fmt.Sprintf("attempt %d after %s", attempt+1, errClass(out.err)))
			wait := time.NewTimer(delay)
			select {
			case <-runCtx.Done():
				wait.Stop()
				retrySpan.End()
				return out
			case <-wait.C:
			}
			retrySpan.End()
		}
		lg.Debug("run complete", "run", run, "cycles", out.res.Cycles,
			"iterations", len(out.col.Iterations()), "dur", out.traced)
		if opts.OnProgress != nil {
			progressMu.Lock()
			runsDone++
			opts.OnProgress(Progress{
				Run:        run,
				Done:       runsDone,
				Total:      opts.Runs,
				Cycles:     out.res.Cycles,
				Iterations: len(out.col.Iterations()),
				Elapsed:    time.Since(verifyStart),
			})
			progressMu.Unlock()
		}
		return out
	}

	workers := opts.Parallel
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers <= 1 {
		workers = 1
	}
	if workers > opts.Runs {
		workers = opts.Runs
	}

	outs := make([]runOut, opts.Runs)
	doRun := func(run int) {
		out := runOne(run)
		if out.err != nil {
			fail(out.err)
		} else {
			probe.runComplete()
		}
		outs[run] = out
	}
	if workers <= 1 {
		for run := 0; run < opts.Runs; run++ {
			doRun(run)
		}
	} else {
		// A fixed pool of `workers` goroutines claims run indices from a
		// shared counter: at most `workers` goroutines exist (instead of
		// one per run), and a claimed run observes sibling failure via
		// runCtx before it starts simulating.
		var wg sync.WaitGroup
		var nextRun atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					run := int(nextRun.Add(1)) - 1
					if run >= opts.Runs {
						return
					}
					doRun(run)
				}
			}()
		}
		wg.Wait()
	}
	simWall := simSpan.End()
	rep.Retries = int(retriesTotal.Load())

	// Merge in run order so results are identical to a sequential run.
	probe.setStage(StageMerge)
	mergeSpan := tr.Start("merge", root.ID(), -1)
	var plainTime, parseTime time.Duration
	runWall := make([]time.Duration, 0, opts.Runs)
	runSim := make([]time.Duration, 0, opts.Runs)
	runParse := make([]time.Duration, 0, opts.Runs)
	prov := newProvMerger()
	for run := 0; run < opts.Runs; run++ {
		if err := outs[run].err; err != nil {
			// End the enclosing spans so a TraceSink JSONL stream is
			// well-formed even on failure, and surface the error that
			// caused the abort rather than a sibling's cancellation.
			mergeSpan.End()
			root.End()
			probe.setStage(StageFailed)
			if firstErr != nil {
				err = firstErr
			}
			lg.Error("verify failed", "err", err, "elapsed", time.Since(verifyStart))
			return nil, err
		}
		rep.Sim.accumulate(outs[run].res)
		for _, ut := range outs[run].col.Results() {
			full[ut.Unit].Merge(ut.Full)
			noT[ut.Unit].Merge(ut.NoTiming)
			rep.IterHashes[ut.Unit] = append(rep.IterHashes[ut.Unit], ut.IterHashes...)
		}
		for u, n := range outs[run].col.SampleCounts() {
			rep.Samples[u] += n
		}
		// Provenance iteration indices are per run; shift them by the
		// kept iterations merged so far so they stay aligned with
		// rep.Iterations.
		prov.add(outs[run].col.Provenance(), len(rep.Iterations))
		rep.Iterations = append(rep.Iterations, outs[run].col.Iterations()...)
		writers, readers := outs[run].col.Attribution()
		mergeAttribution(rep.StoreWriters, writers)
		mergeAttribution(rep.LoadReaders, readers)

		runWall = append(runWall, outs[run].traced)
		if opts.MeasureStages {
			plainTime += outs[run].plain
			parse := outs[run].traced - outs[run].plain
			if parse < 0 {
				parse = 0
			}
			parseTime += parse
			runSim = append(runSim, outs[run].plain)
			runParse = append(runParse, parse)
		}
	}
	rep.Provenance = prov.flatten(opts.Units)
	mergeSpan.End()
	rep.SimCycles = rep.Sim.Cycles
	rep.Stages.RunWall = telemetry.Stats(runWall)
	if opts.MeasureStages {
		rep.Stages.Simulate = plainTime
		rep.Stages.Parse = parseTime
		rep.Stages.RunSim = telemetry.Stats(runSim)
		rep.Stages.RunParse = telemetry.Stats(runParse)
	} else {
		rep.Stages.Simulate = simWall
	}

	if len(rep.Iterations) == 0 {
		root.End()
		probe.setStage(StageFailed)
		lg.Error("verify failed", "err", ErrNoIterations)
		return nil, fmt.Errorf("%s: %w", w.Name, ErrNoIterations)
	}

	// Stage 3: statistical correlation analysis.
	probe.setStage(StageStats)
	statsSpan := tr.Start("stats", root.ID(), -1)
	for _, u := range opts.Units {
		us := tr.StartDetail("stats.unit", statsSpan.ID(), -1, u.String())
		ur := UnitResult{
			Unit:          u,
			Table:         tableOf(full[u]),
			Store:         full[u],
			StoreNoTiming: noT[u],
		}
		ur.Assoc = ur.Table.Analyze()
		ur.AssocNoTiming = tableOf(noT[u]).Analyze()
		rep.Units = append(rep.Units, ur)
		us.End()
	}
	rep.Stages.Stats = statsSpan.End()

	// Stage 4: feature extraction for correlated units only (the paper
	// runs uniqueness/ordering only where correlation is observed).
	probe.setStage(StageExtract)
	extractSpan := tr.Start("extract", root.ID(), -1)
	for i := range rep.Units {
		ur := &rep.Units[i]
		if !ur.Assoc.Significant() {
			continue
		}
		us := tr.StartDetail("extract.unit", extractSpan.ID(), -1, ur.Unit.String())
		ur.UniqueFeatures = features.Uniqueness(ur.Store)
		ur.Ordering = features.Ordering(ur.StoreNoTiming)
		us.End()
	}
	rep.Stages.Extract = extractSpan.End()
	root.End()
	rep.Spans = tr.Spans()
	probe.setStage(StageDone)

	if opts.Metrics != nil {
		recordMetrics(opts.Metrics, rep, runWall)
	}
	leakyNames := make([]string, 0, len(rep.Units))
	for _, u := range rep.LeakyUnits() {
		leakyNames = append(leakyNames, u.Unit.String())
	}
	lg.Info("verify complete",
		"leaky", rep.AnyLeak(), "leaky_units", leakyNames,
		"iterations", len(rep.Iterations), "sim_cycles", rep.SimCycles,
		"retries", rep.Retries,
		"elapsed", time.Since(verifyStart),
		"stage_simulate", rep.Stages.Simulate, "stage_stats", rep.Stages.Stats,
		"stage_extract", rep.Stages.Extract)
	if opts.Cache != nil {
		opts.Cache.Put(cacheKey, rep)
	}
	return rep, nil
}

// recordMetrics folds one finished verification into a registry.
func recordMetrics(m *telemetry.Registry, rep *Report, runWall []time.Duration) {
	m.Counter("verify_total").Inc()
	m.Counter("verify_runs_total").Add(uint64(rep.Runs))
	m.Counter("verify_iterations_total").Add(uint64(len(rep.Iterations)))
	m.Counter("sim_cycles_total").Add(uint64(rep.Sim.Cycles))
	m.Counter("sim_instructions_total").Add(rep.Sim.Instructions)
	m.Counter("sim_branches_total").Add(rep.Sim.Branches)
	m.Counter("sim_branch_mispredicts_total").Add(rep.Sim.BranchMispredicts)
	m.Counter("sim_dcache_hits_total").Add(rep.Sim.DCacheHits)
	m.Counter("sim_dcache_misses_total").Add(rep.Sim.DCacheMisses)
	m.Counter("sim_tlb_misses_total").Add(rep.Sim.TLBMisses)
	m.Counter("sim_nlp_prefetches_total").Add(rep.Sim.Prefetches)
	m.Counter("sim_nlp_useful_total").Add(rep.Sim.PrefetchesUseful)
	m.Counter("sim_nlp_mispredicts_total").Add(rep.Sim.PrefetchesUseless)
	m.Counter("sim_spf_prefetches_total").Add(rep.Sim.StridePrefetches)
	m.Counter("sim_spf_useful_total").Add(rep.Sim.StridePrefetchesUseful)
	m.Counter("sim_spf_mispredicts_total").Add(rep.Sim.StridePrefetchesUseless)
	m.Counter("sim_lsu_replays_total").Add(rep.Sim.LSUReplays)
	m.Gauge("sim_ipc").Set(rep.Sim.IPC())
	m.Gauge("sim_mshr_highwater").SetMax(float64(rep.Sim.MSHRHighWater))
	for u, n := range rep.Samples {
		m.Counter("trace_samples_total." + u.String()).Add(n)
	}
	runHist := m.Histogram("verify_run_seconds", telemetry.LatencyBuckets())
	for _, d := range runWall {
		runHist.Observe(d.Seconds())
	}
	lb := telemetry.LatencyBuckets()
	m.Histogram("verify_stage_seconds.assemble", lb).Observe(rep.Stages.Assemble.Seconds())
	m.Histogram("verify_stage_seconds.simulate", lb).Observe(rep.Stages.Simulate.Seconds())
	m.Histogram("verify_stage_seconds.parse", lb).Observe(rep.Stages.Parse.Seconds())
	m.Histogram("verify_stage_seconds.stats", lb).Observe(rep.Stages.Stats.Seconds())
	m.Histogram("verify_stage_seconds.extract", lb).Observe(rep.Stages.Extract.Seconds())
}

// execRun performs one simulation run attempt from reset state. When tr
// is non-nil, machine construction and execution are recorded as child
// spans of parent. A panic anywhere in the attempt — setup, the
// simulator, a tracer or cycle observer — is recovered into a
// *PanicError with the stack captured, so one crashing attempt never
// takes down the worker pool. When a flight recorder is armed, any
// failure (including a recovered panic) is wrapped in a *RunFailure
// carrying the post-mortem dump of the machine's final cycles.
func execRun(ctx context.Context, w Workload, opts Options, prog *asm.Program, probe *RunProbe,
	run, attempt int, col *trace.Collector, tr *telemetry.SpanTracer, parent uint64) (res sim.Result, err error) {
	var m *sim.Machine
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if err != nil && opts.FlightRecorderFrames > 0 && m != nil {
			err = &RunFailure{Run: run, Attempt: attempt, Dump: m.FlightDump(), Err: err}
		}
	}()
	setupSpan := tr.Start("machine-setup", parent, run)
	m, err = sim.New(opts.Config)
	if err != nil {
		setupSpan.End()
		return sim.Result{}, err
	}
	if err := m.LoadProgram(prog); err != nil {
		setupSpan.End()
		return sim.Result{}, err
	}
	if w.Setup != nil {
		if err := w.Setup(opts.SeedOffset+run, m, prog); err != nil {
			setupSpan.End()
			return sim.Result{}, fmt.Errorf("setup: %w", err)
		}
	}
	setupSpan.End()
	if col != nil {
		m.SetTracer(col)
	}
	if opts.FlightRecorderFrames > 0 {
		m.SetFlightRecorder(sim.NewFlightRecorder(opts.FlightRecorderFrames))
	}
	if probe != nil {
		m.SetCycleObserver(probe.AddCycles)
	}
	if opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.RunTimeout)
		defer cancel()
	}
	execSpan := tr.Start("execute", parent, run)
	res, err = m.RunContext(ctx, opts.MaxCycles, opts.Watchdog)
	execSpan.End()
	if err != nil {
		return res, err
	}
	if res.ExitCode != 0 {
		return res, fmt.Errorf("program exited with code %d", res.ExitCode)
	}
	return res, nil
}

// PanicError is a recovered panic converted into an error, with the
// goroutine stack captured at the recovery site.
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the stack trace captured by debug.Stack at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", p.Value)
}

// retryable reports whether a failed attempt may be re-executed. Only
// host failures are: a watchdog stall or a run-deadline expiry. A
// verdict is a deterministic function of the simulated execution, so
// any other error — a panic included — would recur on every retry.
// Plain cancellation (a sibling failed, or the caller gave up) is not
// a stall or a deadline, so it is never retried.
func retryable(err error) bool {
	return errors.Is(err, sim.ErrStalled) || errors.Is(err, context.DeadlineExceeded)
}

// errClass names the failure mode of a run attempt for logs, spans and
// the verify_run_{panics,stalls,timeouts,errors}_total counters.
func errClass(err error) string {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, sim.ErrStalled):
		return "stall"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "error"
}

// countFailure attributes one failed run attempt to the live telemetry
// counter of its class.
func countFailure(m *telemetry.Registry, err error) {
	if m != nil {
		m.Counter("verify_run_" + errClass(err) + "s_total").Inc()
	}
}

// provMerger accumulates per-unit provenance streams across runs,
// rebasing per-run iteration indices onto the merged iteration order.
type provMerger struct {
	byUnit map[trace.Unit]*provUnitAcc
}

type provUnitAcc struct {
	direct  bool
	streams map[uint64]*trace.ProvStream
	keys    []uint64 // insertion-ordered; sorted at flatten time
}

func newProvMerger() *provMerger {
	return &provMerger{byUnit: make(map[trace.Unit]*provUnitAcc)}
}

// add folds one run's provenance in, shifting iteration indices by
// iterBase (the kept iterations merged before this run).
func (pm *provMerger) add(prov []trace.UnitProvenance, iterBase int) {
	for _, up := range prov {
		acc := pm.byUnit[up.Unit]
		if acc == nil {
			acc = &provUnitAcc{direct: up.Direct, streams: make(map[uint64]*trace.ProvStream)}
			pm.byUnit[up.Unit] = acc
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

// flatten emits the merged provenance in tracked-unit order with keys
// ascending, matching the determinism of a single-run collection.
func (pm *provMerger) flatten(units []trace.Unit) []trace.UnitProvenance {
	out := make([]trace.UnitProvenance, 0, len(pm.byUnit))
	for _, u := range units {
		acc := pm.byUnit[u]
		if acc == nil {
			continue
		}
		sort.Slice(acc.keys, func(i, j int) bool { return acc.keys[i] < acc.keys[j] })
		up := trace.UnitProvenance{Unit: u, Direct: acc.direct}
		up.Streams = make([]trace.ProvStream, 0, len(acc.keys))
		for _, k := range acc.keys {
			up.Streams = append(up.Streams, *acc.streams[k])
		}
		out = append(out, up)
	}
	return out
}

// mergeAttribution unions sorted PC lists per address. Both sides hold
// strictly increasing lists (trace.Collector.Attribution sorts its
// output, and dst only ever holds results of previous merges), so a
// linear two-pointer merge replaces the former quadratic membership
// scan plus insertion sort while producing the identical sorted union.
func mergeAttribution(dst, src map[uint64][]uint64) {
	for addr, pcs := range src {
		dst[addr] = mergeSortedUnique(dst[addr], pcs)
	}
}

// mergeSortedUnique returns the sorted, deduplicated union of two
// strictly increasing lists. The result never aliases b, so callers may
// retain it independently of the source map.
func mergeSortedUnique(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
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
	out = append(out, b[j:]...)
	return out
}

// tableOf builds the contingency table of a snapshot store. Classes
// are inserted in sorted order: the chi-squared and mutual-information
// sums accumulate floats in table insertion order, so iterating the
// CountByClass map directly would perturb their low-order bits from
// run to run.
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
