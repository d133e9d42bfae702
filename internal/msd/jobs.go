package msd

import (
	"fmt"
	"maps"
	"slices"
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
// Point.Resolve; HeatmapWindows and Matrix are the job's own. Execution
// strategy is the daemon's: a request names no parallelism.
type JobRequest struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Config selects the simulated core: "mega" (default) or "small".
	Config         string `json:"config,omitempty"`
	FastBypass     bool   `json:"fastBypass,omitempty"`
	Runs           int    `json:"runs,omitempty"`   // default 4
	Warmup         int    `json:"warmup,omitempty"` // 0: framework default, <0: keep all
	SeedOffset     int    `json:"seedOffset,omitempty"`
	MeasureStages  bool   `json:"measureStages,omitempty"`
	HeatmapWindows int    `json:"heatmapWindows,omitempty"`

	// Matrix turns the job into a configuration-grid sweep: the program
	// is fanned out across every cell of the grid spec (or the default
	// grid when the value is "default") and the per-cell verdicts are
	// aggregated into single matrix/matrix.html artifacts. Config and
	// FastBypass are ignored for matrix jobs — the grid defines each
	// cell's configuration. POST /api/v1/matrix submits this shape
	// directly.
	Matrix string `json:"matrix,omitempty"`

	// Label names the code state this run is listed under in a journaled
	// daemon's run history (GET /api/v1/history) — a commit SHA,
	// typically. Execution metadata only: it never enters the
	// content-addressed cache key, so relabeled resubmissions still hit
	// the cache. Admission defaults an empty label to the daemon binary's
	// VCS stamp before the job is journaled.
	Label string `json:"label,omitempty"`
}

// point is the verification tuple the request names.
func (r JobRequest) point() cluster.Point {
	return cluster.Point{
		Workload: r.Workload, Source: r.Source,
		Config: r.Config, FastBypass: r.FastBypass,
		Runs: r.Runs, Warmup: r.Warmup, SeedOffset: r.SeedOffset,
		MeasureStages: r.MeasureStages,
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

// resolve decodes the job's request and keys it, once, before admission.
func (j *Job) resolve() (err error) {
	if j.w, j.opts, j.grid, err = j.Req.resolve(); err == nil {
		j.key = j.cacheKey()
	}
	return err
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

	// Summary is a done job's verdict — of the whole sweep for a
	// matrix job (Req.Matrix set).
	core.Summary
	// Cached marks a done job that ran no simulation of its own:
	// admission answered it from the content-addressed cache, or made it
	// the follower of an identical queued or running job and it finished
	// with that job's result.
	Cached bool

	artifacts map[string]artifact

	// Set at admission: what the request resolves to, and the artifact
	// set's cache key. A job recovered terminal instead holds the key its
	// journal record names (a failed job's names its postmortem; a
	// record written before records named a blob, none).
	w    core.Workload
	opts core.Options
	grid core.GridSpec
	key  string
	// followers are the identical jobs admitted while this one was
	// queued or running; they finish with its result.
	followers []*Job

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
	ID         string `json:"id"`
	Workload   string `json:"workload"`
	Label      string `json:"label,omitempty"`
	Status     string `json:"status"`
	Error      string `json:"error,omitempty"`
	Submitted  string `json:"submitted"`
	Started    string `json:"started,omitempty"`
	Finished   string `json:"finished,omitempty"`
	DurationMS int64  `json:"durationMillis,omitempty"`
	// Summary is set only on done jobs: a queued, running or failed
	// job's view carries no verdict, not even "leaky": false.
	*core.Summary
	Cached    bool     `json:"cached,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
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
		// Every finished job has started: one that never ran (a cache
		// hit, a follower, a job dropped at recovery) starts as it ends.
		v.DurationMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.Status == StatusDone {
		sum := j.Summary
		v.Summary = &sum
		v.Cached = j.Cached
	}
	// Failed jobs can carry artifacts too (the flight-recorder
	// post-mortem), so list them for every terminal status.
	if j.Status == StatusDone || j.Status == StatusFailed {
		v.Artifacts = slices.Sorted(maps.Keys(j.artifacts))
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
