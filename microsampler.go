// Package microsampler is a framework for microarchitecture-level
// leakage detection in constant-time code, reproducing the system of
// "MicroSampler: A Framework for Microarchitecture-Level Leakage
// Detection in Constant Time Execution" (DSN 2025).
//
// The framework runs a program under test on a deterministic cycle-level
// simulation of an out-of-order RISC-V core (modeled after the Berkeley
// BOOM design), samples the state of sixteen microarchitectural units
// every cycle inside the program's security-critical region, groups the
// samples into per-iteration snapshots labeled with the secret values
// being processed, and measures the statistical association between
// snapshots and secrets with Cramér's V, validated by the chi-squared
// p-value. Units with statistically significant strong association are
// flagged and their root causes extracted through feature uniqueness and
// feature ordering analysis.
//
// # Quick start
//
//	w, err := microsampler.WorkloadByName("ME-V2-SAFE")
//	if err != nil { ... }
//	rep, err := microsampler.Verify(w, microsampler.Options{Runs: 8})
//	if err != nil { ... }
//	fmt.Print(microsampler.RenderSummary(rep))
//	fmt.Print(microsampler.RenderChart(rep))
//
// Programs under test are written in RV64 assembly (see the asm
// subpackage dialect) and delimit their security-critical region with
// the MARK tracing pseudo-instructions:
//
//	roi.begin / roi.end       — bound the sampled region
//	iter.begin rs / iter.end  — bound one algorithmic iteration, with
//	                            the secret class value in register rs
//
// The package re-exports the building blocks so downstream users can
// assemble their own pipelines: the simulator configuration (MegaBoom
// and SmallBoom, Table III of the paper), the tracked units (Table IV),
// the case-study workload catalogue (Section VII), the formal-baseline
// checker (Table VII), and the miniature constant-time compiler used by
// the compiler-vulnerability study.
package microsampler

import (
	"context"

	"microsampler/internal/asm"
	"microsampler/internal/cache"
	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/ctc"
	"microsampler/internal/formal"
	"microsampler/internal/history"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry"
	"microsampler/internal/telemetry/export"
	"microsampler/internal/trace"
	"microsampler/internal/version"
	"microsampler/internal/workloads"
)

// Config parameterises the simulated core (Table III).
type Config = sim.Config

// Machine is a configured simulator instance; workload Setup functions
// receive one to initialise memory with per-run inputs.
type Machine = sim.Machine

// Program is an assembled binary image.
type Program = asm.Program

// MegaBoom returns the large out-of-order configuration of Table III.
func MegaBoom() Config { return sim.MegaBoom() }

// SmallBoom returns the small configuration of Table III.
func SmallBoom() Config { return sim.SmallBoom() }

// ConfigByName decodes a configuration name ("mega" or "small", see
// sim.ConfigByName).
func ConfigByName(name string) (Config, error) { return sim.ConfigByName(name) }

// Unit identifies a tracked microarchitectural feature (Table IV).
type Unit = trace.Unit

// Tracked units, in Table IV order.
const (
	SQADDR     = trace.SQADDR
	SQPC       = trace.SQPC
	LQADDR     = trace.LQADDR
	LQPC       = trace.LQPC
	ROBOCPNCY  = trace.ROBOCPNCY
	ROBPC      = trace.ROBPC
	LFBDATA    = trace.LFBDATA
	LFBADDR    = trace.LFBADDR
	EUUALU     = trace.EUUALU
	EUUADDRGEN = trace.EUUADDRGEN
	EUUDIV     = trace.EUUDIV
	EUUMUL     = trace.EUUMUL
	NLPADDR    = trace.NLPADDR
	CACHEADDR  = trace.CACHEADDR
	TLBADDR    = trace.TLBADDR
	MSHRADDR   = trace.MSHRADDR
	TAGEPRED   = trace.TAGEPRED
	SPFADDR    = trace.SPFADDR
)

// AllUnits returns every tracked unit.
func AllUnits() []Unit { return trace.AllUnits() }

// Workload is a program under verification plus its input generator.
type Workload = core.Workload

// Options configures a verification run.
type Options = core.Options

// RetryPolicy bounds the per-run retry loop (Options.Retry): runs that
// stalled or timed out are retried up to Max times with exponential
// backoff and full jitter.
type RetryPolicy = core.RetryPolicy

// NoWarmup requests explicitly zero warmup iterations; a plain zero
// Warmup keeps the package default.
const NoWarmup = core.NoWarmup

// Progress is the payload of the Options.OnProgress callback: one call
// per completed simulation run.
type Progress = core.Progress

// SimStats aggregates the simulator's performance counters across runs.
type SimStats = core.SimStats

// MetricsRegistry is a goroutine-safe registry of counters, gauges and
// histograms; pass one in Options.Metrics to collect pipeline metrics.
type MetricsRegistry = telemetry.Registry

// Span is one timed region of the Verify pipeline; Report.Spans holds
// the full trace tree and Options.TraceSink receives each span as one
// JSON line.
type Span = telemetry.Span

// DurStats is a duration distribution (min/mean/p95/max).
type DurStats = telemetry.DurStats

// Metrics returns the process-wide default metrics registry.
func Metrics() *MetricsRegistry { return telemetry.Default }

// NewMetrics returns a fresh, empty metrics registry.
func NewMetrics() *MetricsRegistry { return telemetry.NewRegistry() }

// RenderMetrics renders a registry as sorted human-readable text.
func RenderMetrics(m *MetricsRegistry) string { return m.RenderText() }

// RenderMetricsJSON renders a registry as a stable JSON document.
func RenderMetricsJSON(m *MetricsRegistry) ([]byte, error) { return m.RenderJSON() }

// Report is a complete verification outcome.
type Report = core.Report

// UnitResult is the per-unit statistical verdict.
type UnitResult = core.UnitResult

// IterSample is one labeled iteration's summary.
type IterSample = trace.IterSample

// Verify runs the MicroSampler pipeline on a workload: simulate with
// tracing, snapshot and hash, analyze associations, extract features.
func Verify(w Workload, opts Options) (*Report, error) {
	return core.Verify(w, opts)
}

// VerifyContext is Verify with cancellation: a cancelled context aborts
// between simulation runs.
func VerifyContext(ctx context.Context, w Workload, opts Options) (*Report, error) {
	return core.VerifyContext(ctx, w, opts)
}

// Content-addressed verdict cache.
//
// Verification is deterministic — the calibration gate proves
// byte-identical output across runs — so a report is a pure function of
// (program bytes, machine configuration, seed range, detection-relevant
// options). VerifyCache memoises that function: set Options.Cache and
// repeat verifications of the same tuple return the cached *Report in
// microseconds instead of simulating.

// VerifyCache is a bounded in-memory LRU of verification reports, safe
// for concurrent use. Cached reports are shared, not copied — treat
// them as immutable.
type VerifyCache = cache.LRU

// CacheStats is a point-in-time reading of a cache's effectiveness.
type CacheStats = cache.Stats

// NewVerifyCache returns an empty cache holding at most max reports.
func NewVerifyCache(max int) *VerifyCache { return cache.NewLRU(max) }

// DiskCache is a content-addressed blob store: opaque byte values
// filed under their canonical key, written atomically (temp file,
// fsync, rename). It is the persistence layer under a VerifyCache; the
// CLI and the msd daemon use one to serve repeat runs across process
// restarts.
type DiskCache = cache.Disk

// OpenDiskCache opens (creating as needed) a blob store rooted at dir.
func OpenDiskCache(dir string) (*DiskCache, error) { return cache.NewDisk(dir) }

// CacheKey returns the canonical content-addressed key of a
// verification: the SHA-256 of the assembled program, the machine
// configuration and every detection-relevant option, with defaults
// applied first so spelled-out defaults and omitted ones key
// identically. Execution strategy (parallelism, retries, probes,
// sinks) is excluded — it cannot change the verdict.
func CacheKey(w Workload, opts Options) (string, error) {
	return core.CacheKey(w, opts)
}

// MatrixCacheKey is CacheKey for a grid sweep: the base tuple plus the
// grid's cell names.
func MatrixCacheKey(w Workload, opts MatrixOptions) (string, error) {
	return core.MatrixCacheKey(w, opts)
}

// WorkloadByName returns one of the built-in case-study workloads:
// ME-NAIVE, ME-V1-CV, ME-V1-MV, ME-V1-MV-6A, ME-V1-MV-6B, ME-V2-SAFE,
// CT-MEM-CMP, and the constant_time_* primitives of Table V.
func WorkloadByName(name string) (Workload, error) {
	return workloads.ByName(name)
}

// WorkloadNames lists the built-in case studies.
func WorkloadNames() []string { return workloads.Names() }

// OpenSSLPrimitiveNames lists the Table V primitive sweeps.
func OpenSSLPrimitiveNames() []string { return workloads.OpenSSLPrimitiveNames() }

// ModexpWithConditionalCopy builds the modular-exponentiation case-study
// driver around a user-supplied (e.g. compiled) conditional copy: funcs
// must define `ccopy(ctl, dst, dummy, src, len)` and anything it calls.
func ModexpWithConditionalCopy(name, funcs string) (Workload, error) {
	return workloads.ModexpWithConditionalCopy(name, funcs)
}

// Assemble assembles RV64 source in the framework's dialect.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewMachine builds a bare simulator for custom harnesses.
func NewMachine(cfg Config) (*Machine, error) { return sim.New(cfg) }

// Rendering helpers (terminal text in the style of the paper's figures).

// RenderSummary returns the one-line verdict and leaky-unit list.
func RenderSummary(rep *Report) string { return report.Summary(rep) }

// RenderChart returns the per-unit Cramér's V bar chart (Figs. 3/4/7/10).
func RenderChart(rep *Report) string { return report.CramersVChart(rep) }

// RenderTimingChart returns the with/without-timing paired chart (Fig. 9).
func RenderTimingChart(rep *Report) string { return report.CramersVTimingChart(rep) }

// RenderHistogram returns per-class iteration timing distributions (Fig. 6).
func RenderHistogram(title string, iters []IterSample) string {
	return report.TimingHistogram(title, iters)
}

// MeanCyclesByClass returns mean iteration cycles per secret class.
func MeanCyclesByClass(iters []IterSample) map[uint64]float64 {
	return report.MeanCycles(iters)
}

// RenderContingency returns a unit's contingency table (Table II).
func RenderContingency(rep *Report, unit Unit, maxCols int) string {
	return report.ContingencyTable(rep, unit, maxCols)
}

// RenderFeatures returns a unit's root-cause extraction (Fig. 5).
func RenderFeatures(rep *Report, unit Unit) string {
	return report.Features(rep, unit)
}

// RenderStages returns the pipeline stage-time breakdown (Table VI).
func RenderStages(rep *Report) string { return report.StageBreakdown(rep) }

// RenderJSON returns the report in the stable machine-readable schema
// (per-unit Cramér's V, bias-corrected V, p-value, mutual information,
// unique features).
func RenderJSON(rep *Report) ([]byte, error) { return report.JSON(rep) }

// Exportable observability surfaces (Prometheus, Perfetto, heatmaps).

// Heatmap is the units × iteration-window leakage matrix of a report:
// per-window Cramér's V for every tracked unit, showing *when* during
// the execution each unit correlated with the secret.
type Heatmap = report.Heatmap

// PerfettoTrace is a Chrome trace-event document; open it in
// ui.perfetto.dev or chrome://tracing.
type PerfettoTrace = export.PerfettoTrace

// BuildHeatmap bins a report's per-iteration evidence into `windows`
// contiguous iteration windows (non-positive selects the default, 16).
func BuildHeatmap(rep *Report, windows int) (*Heatmap, error) {
	return report.BuildHeatmap(rep, windows)
}

// RenderHeatmapJSON returns a report's leakage heatmap as deterministic
// JSON (byte-identical across repeated runs of the same seed).
func RenderHeatmapJSON(rep *Report, windows int) ([]byte, error) {
	hm, err := report.BuildHeatmap(rep, windows)
	if err != nil {
		return nil, err
	}
	return hm.JSON()
}

// RenderHeatmapHTML returns a report's leakage heatmap as a
// self-contained single-file HTML document with an inline SVG matrix.
func RenderHeatmapHTML(rep *Report, windows int) (string, error) {
	hm, err := report.BuildHeatmap(rep, windows)
	if err != nil {
		return "", err
	}
	return hm.HTML(), nil
}

// RenderPerfetto converts a report's span tree into a Perfetto/Chrome
// trace-event document.
func RenderPerfetto(rep *Report) *PerfettoTrace { return export.Perfetto(rep.Spans) }

// Leakage provenance, flight recorder and live introspection.

// Provenance is the instruction-level attribution of a verification:
// the program counters whose event streams statistically separate the
// secret classes, ranked by Cramér's V.
type Provenance = report.Provenance

// ProvEntry is one ranked provenance attribution.
type ProvEntry = report.ProvEntry

// BuildProvenance ranks a report's per-instruction leakage evidence.
func BuildProvenance(rep *Report) (*Provenance, error) {
	return report.BuildProvenance(rep)
}

// RenderProvenanceJSON returns the ranked provenance as deterministic
// JSON.
func RenderProvenanceJSON(rep *Report) ([]byte, error) {
	pv, err := report.BuildProvenance(rep)
	if err != nil {
		return nil, err
	}
	return pv.JSON()
}

// RenderProvenanceHTML returns the ranked provenance as a
// self-contained HTML document, with disassembly context around the
// top entries.
func RenderProvenanceHTML(rep *Report) (string, error) {
	pv, err := report.BuildProvenance(rep)
	if err != nil {
		return "", err
	}
	return pv.HTMLWithDisasm(rep.Program, 5, 4), nil
}

// GridSpec is a declarative microarchitecture grid: the configuration
// axes a matrix verification sweeps (base core, fast bypass, divider,
// prefetcher, branch predictor).
type GridSpec = core.GridSpec

// GridAxis is one swept axis of a grid.
type GridAxis = core.Axis

// MatrixOptions configures a grid sweep; the embedded Options apply to
// every cell.
type MatrixOptions = core.MatrixOptions

// Matrix is the outcome of a grid sweep: one verdict per configuration
// cell.
type Matrix = core.Matrix

// MatrixCellResult is one grid cell's verdict.
type MatrixCellResult = core.CellResult

// MatrixArtifact is the serialisable matrix artifact: per-cell verdicts
// plus leak provenance for the leaky cells.
type MatrixArtifact = report.MatrixArtifact

// ParseGridSpec parses a textual grid spec, e.g.
// "base=small,mega;prefetch=none,stride;predictor=gshare,tage".
func ParseGridSpec(s string) (GridSpec, error) { return core.ParseGridSpec(s) }

// DefaultGrid is the default sweep: both base cores against the
// prefetcher and predictor models.
func DefaultGrid() GridSpec { return core.DefaultGrid() }

// VerifyMatrix verifies the workload on every cell of a configuration
// grid — the full pipeline per cell, with per-cell failure containment
// and a deterministic cell order.
func VerifyMatrix(w Workload, opts MatrixOptions) (*Matrix, error) {
	return core.VerifyMatrix(w, opts)
}

// VerifyMatrixContext is VerifyMatrix with cancellation.
func VerifyMatrixContext(ctx context.Context, w Workload, opts MatrixOptions) (*Matrix, error) {
	return core.VerifyMatrixContext(ctx, w, opts)
}

// BuildMatrix distils a sweep into its artifact, attaching the top
// provenance entries to every leaky cell.
func BuildMatrix(m *Matrix) *MatrixArtifact { return report.BuildMatrix(m, 0) }

// RenderMatrixJSON returns the matrix artifact as deterministic JSON —
// byte-identical across repeated sweeps of the same seed, whatever the
// parallelism.
func RenderMatrixJSON(m *Matrix) ([]byte, error) { return report.BuildMatrix(m, 0).JSON() }

// RenderMatrixHTML returns the matrix artifact as a self-contained HTML
// verdict heatmap.
func RenderMatrixHTML(m *Matrix) string { return report.BuildMatrix(m, 0).HTML() }

// FlightDump is a flight-recorder post-mortem: the last N cycles of
// per-unit occupancy before a run died (Options.FlightRecorderFrames).
type FlightDump = sim.FlightDump

// RunFailure wraps a failed run's error with its flight-recorder dump.
type RunFailure = core.RunFailure

// FlightDumpFromError extracts the flight-recorder post-mortem from a
// Verify error, if one is attached.
func FlightDumpFromError(err error) (*FlightDump, bool) {
	return core.FlightDumpFromError(err)
}

// RenderFlightPerfetto converts a flight-recorder dump into a Perfetto
// counter trace.
func RenderFlightPerfetto(d *FlightDump) *PerfettoTrace {
	return export.FlightPerfetto(d)
}

// RunProbe is a live progress view of one verification (Options.Probe):
// read Snapshot from any goroutine while Verify runs.
type RunProbe = core.RunProbe

// ProbeSnapshot is one reading of a RunProbe.
type ProbeSnapshot = core.ProbeSnapshot

// NewRunProbe returns a fresh idle probe.
func NewRunProbe() *RunProbe { return core.NewRunProbe() }

// RenderPrometheus renders a metrics registry in the Prometheus text
// exposition format (the document served at the msd daemon's /metrics).
func RenderPrometheus(m *MetricsRegistry) string { return export.PrometheusText(m) }

// Differential observability: run history and verdict diffing.

// HistoryStore is the append-only, crash-safe run-history store: one
// fsync'd JSONL index line per labeled run, artifacts filed
// content-addressed in a DiskCache blob store next to the index.
type HistoryStore = history.Store

// HistoryRecord is one line of the history index.
type HistoryRecord = history.Record

// History record kinds.
const (
	HistoryKindReport = history.KindReport
	HistoryKindMatrix = history.KindMatrix
)

// OpenHistory opens (creating as needed) the history store at dir.
func OpenHistory(dir string) (*HistoryStore, error) { return history.Open(dir) }

// ReportDigest is the diffable distillation of one verification:
// per-unit verdicts plus top provenance, JSON-round-trippable so it can
// seed BuildDiff from the history store or a committed baseline file.
type ReportDigest = report.ReportDigest

// BuildDigest distils a report into its diffable digest.
func BuildDigest(rep *Report) (*ReportDigest, error) { return report.BuildDigest(rep) }

// DiffOptions tunes the diff engine (labels, V-drift threshold).
type DiffOptions = report.DiffOptions

// ReportDiff is the deterministic delta between two report digests.
type ReportDiff = report.Diff

// MatrixDiff is the deterministic delta between two matrix sweeps:
// which cells changed verdict between commit A and commit B.
type MatrixDiff = report.MatrixDiff

// VerdictFlip is one unit or grid cell whose leaky verdict changed.
type VerdictFlip = report.VerdictFlip

// BuildDiff computes the delta between two report digests.
func BuildDiff(from, to *ReportDigest, opts DiffOptions) *ReportDiff {
	return report.BuildDiff(from, to, opts)
}

// BuildMatrixDiff computes the delta between two matrix artifacts.
func BuildMatrixDiff(from, to *MatrixArtifact, opts DiffOptions) *MatrixDiff {
	return report.BuildMatrixDiff(from, to, opts)
}

// Build provenance and version stamping.

// BuildVersion describes the running binary: module version, Go
// toolchain, and the VCS commit baked in by `go build`.
type BuildVersion = version.Info

// GetBuildVersion returns the binary's build provenance.
func GetBuildVersion() BuildVersion { return version.Get() }

// VersionLine formats the standard `-version` output line for cmd.
func VersionLine(cmd string) string { return version.Get().Line(cmd) }

// DefaultHistoryLabel is the label stamped on history records when the
// user supplies none: the short VCS commit (plus "-dirty"), or
// "unlabeled" when the binary carries no VCS info.
func DefaultHistoryLabel() string { return version.DefaultLabel() }

// BuildInfoGauge registers the conventional build_info gauge (value 1,
// version/goversion/revision/dirty labels) on a metrics registry.
func BuildInfoGauge(reg *MetricsRegistry, name string) { version.Gauge(reg, name) }

// Distributed verification (the msd coordinator/worker cluster).

// ClusterPoint is one program×configuration verification point of a
// batch — the unit of work the coordinator shards across workers. It
// is self-contained on the wire: any daemon can resolve it to a
// verification without batch context.
type ClusterPoint = cluster.Point

// ClusterPointResult is one point's terminal outcome: the
// deterministic verdict fields plus execution metadata (which worker
// answered, whether it was cached or degraded to local execution).
type ClusterPointResult = cluster.PointResult

// ClusterPointKey returns the point's canonical content-addressed
// cache key — the same core CacheKey a single-node verification of
// the identical tuple would use, which is what makes cross-node cache
// fill and reassignment dedup sound.
func ClusterPointKey(p ClusterPoint) (string, error) {
	return p.Key()
}

// Constant-time compiler (compiler-vulnerability substrate).

// Strategy selects the compiler's conditional lowering.
type Strategy = ctc.Strategy

// Compiler lowering strategies.
const (
	LowerPlain    = ctc.LowerPlain
	LowerBalanced = ctc.LowerBalanced
	LowerPreload  = ctc.LowerPreload
)

// CompileCT compiles the miniature C-like language to RV64 assembly
// with the chosen lowering strategy.
func CompileCT(src string, strategy Strategy) (string, error) {
	return ctc.Compile(src, strategy)
}

// Formal baseline (Table VII scalability comparison).

// FormalResult summarises a formal two-safety verification run.
type FormalResult = formal.Result

// Netlist is a gate-level design accepted by the formal checker.
type Netlist = formal.Netlist

// FormalALU returns the small data-oblivious ALU design (1x size).
func FormalALU() *Netlist { return formal.ALUDesign() }

// FormalSCARV returns the toy in-order core design (8x size).
func FormalSCARV() *Netlist { return formal.SCARVDesign() }

// FormalCheck runs the two-safety product-state checker to a bounded
// depth.
func FormalCheck(n *Netlist, maxSteps int) (FormalResult, error) {
	return formal.Check(n, maxSteps)
}
