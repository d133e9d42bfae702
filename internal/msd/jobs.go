package msd

import (
	"fmt"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry/export"
)

// JobStatus is the lifecycle state of a submitted verification job.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
	// StatusInterrupted marks a job that was mid-run when the daemon
	// process died, discovered by journal recovery at the next start.
	// It is terminal unless Config.RequeueInterrupted re-enqueues the
	// job for a fresh attempt.
	StatusInterrupted JobStatus = "interrupted"
)

// JobRequest is the submit-endpoint payload: a wire adapter over
// cluster.Point. The fields point() copies mean exactly what the same
// Point fields mean and are decoded and defaulted only by
// Point.Resolve; Parallel, HeatmapWindows, Matrix and CellParallel are
// the job's own.
type JobRequest struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Config selects the simulated core: "mega" (default) or "small".
	Config     string `json:"config,omitempty"`
	FastBypass bool   `json:"fastBypass,omitempty"`
	Runs       int    `json:"runs,omitempty"`   // default 4
	Warmup     int    `json:"warmup,omitempty"` // 0: framework default, <0: keep all
	// Parallel is forwarded to core.Options.Parallel: concurrent
	// simulations within this job (0/absent: one per CPU).
	Parallel       int  `json:"parallel,omitempty"`
	SeedOffset     int  `json:"seedOffset,omitempty"`
	MeasureStages  bool `json:"measureStages,omitempty"`
	HeatmapWindows int  `json:"heatmapWindows,omitempty"`

	// Matrix turns the job into a configuration-grid sweep: the program
	// is fanned out across every cell of the grid spec (or the default
	// grid when the value is "default") and the per-cell verdicts are
	// aggregated into single matrix/matrix.html artifacts. Config and
	// FastBypass are ignored for matrix jobs — the grid defines each
	// cell's configuration. POST /api/v1/matrix submits this shape
	// directly.
	Matrix string `json:"matrix,omitempty"`
	// CellParallel bounds the concurrently verified cells of a matrix
	// job (0/absent: sequential cells; each cell still parallelises its
	// runs via Parallel).
	CellParallel int `json:"cellParallel,omitempty"`

	// Label names the code state this run should be filed under in the
	// daemon's run-history store (Config.HistoryDir) — a commit SHA,
	// typically. Execution metadata only: it never enters the
	// content-addressed cache key, so relabeled resubmissions still hit
	// the cache. Empty defaults to the daemon binary's own VCS stamp.
	Label string `json:"label,omitempty"`
}

// point is the verification tuple the request names.
func (r JobRequest) point() cluster.Point {
	return cluster.Point{
		Workload: r.Workload, Source: r.Source,
		Config: r.Config, FastBypass: r.FastBypass,
		Runs: r.Runs, Warmup: r.Warmup, SeedOffset: r.SeedOffset,
		MeasureStages: r.MeasureStages, Label: r.Label,
	}
}

// resolve decodes the request through Point.Resolve, plus the grid of a
// matrix job. A matrix job's options carry no configuration: the grid
// defines each cell's, so Config and FastBypass must not split its key.
func (r JobRequest) resolve() (core.Workload, core.Options, core.GridSpec, error) {
	w, opts, err := r.point().Resolve()
	if err != nil || r.Matrix == "" {
		return w, opts, core.GridSpec{}, err
	}
	opts.Config = sim.Config{}
	grid, err := core.ParseGridSpec(r.Matrix)
	return w, opts, grid, err
}

// validate reports user errors.
func (r JobRequest) validate() error {
	if _, _, _, err := r.resolve(); err != nil {
		return err
	}
	if r.CellParallel < core.ParallelAuto {
		return fmt.Errorf("cellParallel must be >= %d, got %d", core.ParallelAuto, r.CellParallel)
	}
	return nil
}

// Job is one tracked verification: the request, its lifecycle
// timestamps, and — once done — the rendered artifacts. Fields are
// guarded by the server mutex; artifacts are written once before the
// job transitions to done and read-only afterwards.
type Job struct {
	ID        string
	Req       JobRequest
	Status    JobStatus
	Err       string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	Leaky      bool
	LeakyUnits []string
	Iterations int
	SimCycles  int64
	// Cells and LeakyCells summarise a matrix job (Req.Matrix set):
	// grid size and the names of the cells with a leaky verdict.
	Cells      int
	LeakyCells []string
	// Cached marks a done job whose verdict came from the
	// content-addressed cache (or was deduplicated onto an identical
	// in-flight job) instead of a fresh simulation.
	Cached bool

	artifacts map[string]artifact

	// probe is the live progress view of the running verification,
	// installed by the worker just before the job starts and read by
	// the /jobs/{id}/progress endpoint. Nil until the job first runs
	// (and after recovery, where no live pipeline exists).
	probe *core.RunProbe
}

// artifact is one downloadable result document.
type artifact struct {
	contentType string
	data        []byte
}

// jobView is the wire form of a job's status.
type jobView struct {
	ID         string   `json:"id"`
	Workload   string   `json:"workload"`
	Label      string   `json:"label,omitempty"`
	Status     string   `json:"status"`
	Error      string   `json:"error,omitempty"`
	Submitted  string   `json:"submitted"`
	Started    string   `json:"started,omitempty"`
	Finished   string   `json:"finished,omitempty"`
	DurationMS int64    `json:"durationMillis,omitempty"`
	Leaky      *bool    `json:"leaky,omitempty"`
	LeakyUnits []string `json:"leakyUnits,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	SimCycles  int64    `json:"simCycles,omitempty"`
	Cells      int      `json:"cells,omitempty"`
	LeakyCells []string `json:"leakyCells,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	Artifacts  []string `json:"artifacts,omitempty"`
}

func (j *Job) view() jobView {
	v := jobView{
		ID:        j.ID,
		Workload:  j.workloadName(),
		Label:     j.Req.Label,
		Status:    string(j.Status),
		Error:     j.Err,
		Submitted: j.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.Started.IsZero() {
		v.Started = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		v.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
		v.DurationMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.Status == StatusDone {
		leaky := j.Leaky
		v.Leaky = &leaky
		v.LeakyUnits = j.LeakyUnits
		v.Iterations = j.Iterations
		v.SimCycles = j.SimCycles
		v.Cells = j.Cells
		v.LeakyCells = j.LeakyCells
		v.Cached = j.Cached
	}
	// Failed jobs can carry artifacts too (the flight-recorder
	// post-mortem), so list them for every terminal status.
	if j.Status == StatusDone || j.Status == StatusFailed {
		for name := range j.artifacts {
			v.Artifacts = append(v.Artifacts, name)
		}
		sortStrings(v.Artifacts)
	}
	return v
}

// progressView is the wire form of /api/v1/jobs/{id}/progress: a live
// reading of the run probe while the job executes, frozen to the final
// report numbers once it is terminal.
type progressView struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Stage     string `json:"stage"`
	Cycles    int64  `json:"cycles"`
	RunsDone  int    `json:"runsDone"`
	TotalRuns int    `json:"totalRuns"`
	Retries   int    `json:"retries"`
	ElapsedMS int64  `json:"elapsedMillis"`
}

// progress snapshots the job's live state; callers hold the server
// mutex (the probe itself is lock-free and safe to read concurrently
// with the running pipeline).
func (j *Job) progress() progressView {
	v := progressView{ID: j.ID, Status: string(j.Status)}
	switch j.Status {
	case StatusQueued:
		v.Stage = core.StageIdle.String()
		v.ElapsedMS = time.Since(j.Submitted).Milliseconds()
	case StatusRunning:
		v.ElapsedMS = time.Since(j.Started).Milliseconds()
	default:
		v.ElapsedMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.probe != nil {
		s := j.probe.Snapshot()
		v.Stage = s.Stage.String()
		v.Cycles = s.Cycles
		v.RunsDone = s.RunsDone
		v.TotalRuns = s.TotalRuns
		v.Retries = s.Retries
	}
	// Terminal statuses pin the stage and cycle count to the recorded
	// outcome, which also covers journal-recovered jobs with no live
	// probe (and test doubles that never drive one).
	switch j.Status {
	case StatusDone:
		v.Stage = core.StageDone.String()
		if j.SimCycles > v.Cycles {
			v.Cycles = j.SimCycles
		}
	case StatusFailed, StatusInterrupted:
		v.Stage = core.StageFailed.String()
	}
	return v
}

func (j *Job) workloadName() string { return j.Req.point().WorkloadName() }

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}

// renderArtifacts produces every downloadable document of a finished
// verification: the stable JSON report, the Perfetto trace of the span
// tree, the leakage heatmap and provenance in JSON and self-contained
// HTML, and the diffable report digest the history/diff layer consumes.
func renderArtifacts(rep *core.Report, heatmapWindows int) (map[string]artifact, error) {
	out := make(map[string]artifact, 4)
	repJSON, err := report.JSON(rep)
	if err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	out["report"] = artifact{"application/json", repJSON}

	traceJSON, err := export.Perfetto(rep.Spans).JSON()
	if err != nil {
		return nil, fmt.Errorf("render trace: %w", err)
	}
	out["trace"] = artifact{"application/json", traceJSON}

	hm, err := report.BuildHeatmap(rep, heatmapWindows)
	if err != nil {
		return nil, fmt.Errorf("build heatmap: %w", err)
	}
	hmJSON, err := hm.JSON()
	if err != nil {
		return nil, fmt.Errorf("render heatmap: %w", err)
	}
	out["heatmap"] = artifact{"application/json", hmJSON}
	out["heatmap.html"] = artifact{"text/html; charset=utf-8", []byte(hm.HTML())}

	pv, err := report.BuildProvenance(rep)
	if err != nil {
		return nil, fmt.Errorf("build provenance: %w", err)
	}
	pvJSON, err := pv.JSON()
	if err != nil {
		return nil, fmt.Errorf("render provenance: %w", err)
	}
	out["provenance"] = artifact{"application/json", pvJSON}
	out["provenance.html"] = artifact{"text/html; charset=utf-8",
		[]byte(pv.HTMLWithDisasm(rep.Program, 5, 4))}

	dg, err := report.BuildDigest(rep)
	if err != nil {
		return nil, fmt.Errorf("build digest: %w", err)
	}
	dgJSON, err := dg.JSON()
	if err != nil {
		return nil, fmt.Errorf("render digest: %w", err)
	}
	out["digest"] = artifact{"application/json", dgJSON}
	return out, nil
}

// renderMatrixArtifacts aggregates a grid sweep's per-cell results into
// the single downloadable matrix artifact pair: the deterministic JSON
// verdict matrix and the self-contained HTML heatmap.
func renderMatrixArtifacts(m *core.Matrix) (map[string]artifact, error) {
	art := report.BuildMatrix(m, 0)
	data, err := art.JSON()
	if err != nil {
		return nil, fmt.Errorf("render matrix: %w", err)
	}
	return map[string]artifact{
		"matrix":      {"application/json", data},
		"matrix.html": {"text/html; charset=utf-8", []byte(art.HTML())},
	}, nil
}

// postmortemArtifacts extracts the downloadable evidence of a failed
// job: the flight-recorder dump rendered as a Perfetto counter trace,
// when the verification error carries one. Failures without a dump
// yield no artifacts.
func postmortemArtifacts(err error) map[string]artifact {
	dump, ok := core.FlightDumpFromError(err)
	if !ok {
		return nil
	}
	data, jerr := export.FlightPerfetto(dump).JSON()
	if jerr != nil {
		return nil
	}
	return map[string]artifact{
		"postmortem": {"application/json", data},
	}
}
