package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/report"
	"microsampler/internal/workloads"
)

// ci-grid: the CI verdict gate exactly as ci.yml runs it. One client
// sweeps TAGE-HIST over the 12-cell default grid (4 runs, warmup 4,
// cell parallelism 2), renders the matrix JSON and HTML, and diffs them
// against the committed baseline. Its kernels run about 2k cycles per
// run on configurations paper-suite never touches (SmallBoom, TAGE, the
// stride prefetcher), so fixed per-verification costs dominate: machine
// construction, assembly, collector set-up, statistics on small tables,
// the cell pool and matrix rendering. A sampling speed-up should barely
// move it; a cut in set-up or allocation should. The input is fixed, so
// the output can be checked byte for byte, and the seed is ignored.

// gridBaseline is the committed matrix the sweep must reproduce,
// relative to the repository root the benchmark runs from.
var gridBaseline = filepath.Join(".github", "baselines", "tage-hist-default-grid.json")

const gridWorkload = "TAGE-HIST"

// gridDeck is the number of identical sweeps throughput is measured over.
const gridDeck = 8

func gridOptions() core.MatrixOptions {
	o := core.MatrixOptions{Grid: core.DefaultGrid(), CellParallel: 2}
	o.Runs = 4
	o.Warmup = 4
	return o
}

type gridEnv struct {
	traced   bool
	w        core.Workload
	base     *report.MatrixArtifact
	baseJSON []byte

	all, window layerSplit
	rt          rtSnap
}

func openGrid(o runOpts) (env, error) {
	data, err := os.ReadFile(gridBaseline)
	if err != nil {
		return nil, err
	}
	e := &gridEnv{traced: o.traced, baseJSON: data, base: &report.MatrixArtifact{}}
	if err := json.Unmarshal(data, e.base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", gridBaseline, err)
	}
	if e.w, err = workloads.ByName(gridWorkload); err != nil {
		return nil, err
	}
	if r := e.sweep(); r.err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", r.err)
	}
	return e, nil
}

func (e *gridEnv) do(i int) opResult {
	r := e.sweep()
	if r.err != nil || !e.traced {
		return r.opResult
	}
	// Both sides include the matrix rendering.
	one := layerSplit{ops: 1, render: r.render, replayWall: r.render, plainWall: r.render, keys: 1,
		counts: counts{ReportBytes: int64(r.bytes)}}
	t := time.Now()
	if _, err := core.MatrixCacheKey(e.w, gridOptions()); err != nil {
		return opResult{lat: r.lat, err: err}
	}
	one.keyTime = time.Since(t)
	if err := e.replayCells(r.m, &one); err != nil {
		return opResult{lat: r.lat, err: err}
	}
	e.all.add(&one)
	if i == 0 {
		e.window.add(&one)
	}
	return r.opResult
}

// replayCells replays every cell of a sweep, two at a time as the sweep
// verifies them, and holds each to the sweep's own digest. Layer times
// are summed over cells, and the plain counterpart of the replays is
// the cells' own stage time, measured under the same contention.
func (e *gridEnv) replayCells(m *core.Matrix, l *layerSplit) error {
	opts := gridOptions()
	cells := opts.Grid.Cells()
	splits := make([]layerSplit, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.CellParallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < len(cells); c = int(next.Add(1)) - 1 {
				cfg, err := cells[c].Config()
				if err == nil {
					shape := verifyShape{cfg: cfg, runs: opts.Runs, warmup: opts.Warmup}
					err = replayMatches(e.w, shape, m.Cells[c].Report, nil, &splits[c])
				}
				if err != nil {
					errs[c] = fmt.Errorf("cell %s: %w", cells[c].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	for c := range cells {
		if errs[c] != nil {
			return errs[c]
		}
		splits[c].plainWall = m.Cells[c].Report.Stages.Total()
		l.add(&splits[c])
	}
	return nil
}

// sweepResult is one sweep with its rendering time and output size.
type sweepResult struct {
	opResult
	m      *core.Matrix
	render time.Duration
	bytes  int
}

// sweep runs the gate once: sweep, render, diff, check.
func (e *gridEnv) sweep() sweepResult {
	rt0 := readRuntime()
	start := time.Now()
	m, err := core.VerifyMatrix(e.w, gridOptions())
	if err != nil {
		return sweepResult{opResult: opResult{lat: time.Since(start), err: err}}
	}
	t := time.Now()
	art := report.BuildMatrix(m, 0)
	js, err := art.JSON()
	if err != nil {
		return sweepResult{opResult: opResult{lat: time.Since(start), err: err}}
	}
	html := art.HTML()
	d := report.BuildMatrixDiff(e.base, art, report.DiffOptions{FromLabel: "baseline", ToLabel: "sweep"})
	dj, err := d.JSON()
	if err != nil {
		return sweepResult{opResult: opResult{lat: time.Since(start), err: err}}
	}
	dh := d.HTML(e.base, art)
	r := sweepResult{m: m, render: time.Since(t), bytes: len(js) + len(html) + len(dj) + len(dh)}
	r.lat = time.Since(start)
	if e.traced {
		e.rt = e.rt.add(readRuntime().sub(rt0))
	}
	switch {
	case !bytes.Equal(append(js, '\n'), e.baseJSON):
		r.err = fmt.Errorf("matrix JSON differs from %s", gridBaseline)
	case d.Regression():
		r.err = fmt.Errorf("%d cell(s) regressed against %s", d.Regressions, gridBaseline)
	default:
		r.verdicts = len(m.Cells)
	}
	return r
}

func (e *gridEnv) check([]opResult) {}

// layers reports the runtime's activity during the sweeps only, leaving
// out the replays.
func (e *gridEnv) layers(ops []opResult, _ time.Duration, _ rtSnap) (map[string]metric, counts, error) {
	if e.window.ops != 1 {
		return nil, counts{}, fmt.Errorf("count window holds %d sweeps, want 1", e.window.ops)
	}
	m := e.all.metrics()
	for k, v := range e.rt.metrics(verdicts(ops)) {
		m[k] = v
	}
	return m, e.window.counts, nil
}

func (e *gridEnv) close() {}
