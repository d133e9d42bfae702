package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"microsampler"
)

// histDiff carries the CLI's differential-observability wiring: the
// optional run-history store this invocation records into, and the
// optional baseline (a history label or an artifact file) the fresh
// verdicts are diffed against. A diff that contains a verdict
// regression — any clean→leaky flip — is returned as an error, so the
// process exits nonzero: the CI gate.
type histDiff struct {
	store        *microsampler.HistoryStore
	label        string
	diffAgainst  string // history label to diff against
	baselineFile string // or: baseline artifact file to diff against
	diffOut      string
	diffHTML     string
	vdelta       float64
}

// active reports whether any history/diff work is requested (and hence
// whether the run needs its diffable artifact even on a cache replay).
func (hd *histDiff) active() bool {
	return hd != nil && (hd.store != nil || hd.diffAgainst != "" || hd.baselineFile != "")
}

// baseline resolves the diff baseline blob: the artifact file verbatim,
// or the named artifact of the latest history record carrying the
// -diff-against label. A (“”, nil, nil) return means no diff was
// requested.
func (hd *histDiff) baseline(kind, artName string) (string, []byte, error) {
	switch {
	case hd.baselineFile != "":
		data, err := os.ReadFile(hd.baselineFile)
		return hd.baselineFile, data, err
	case hd.diffAgainst != "":
		rec, ok := hd.store.Latest(hd.diffAgainst, "", kind)
		if !ok {
			return "", nil, fmt.Errorf("history: no %s record labeled %q in %s",
				kind, hd.diffAgainst, hd.store.Dir())
		}
		data, err := hd.store.Artifact(rec, artName)
		return hd.diffAgainst, data, err
	}
	return "", nil, nil
}

func (hd *histDiff) writeDiff(data []byte, html string) error {
	if hd.diffOut != "" {
		if err := os.WriteFile(hd.diffOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if hd.diffHTML != "" {
		if err := os.WriteFile(hd.diffHTML, []byte(html), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// finishReport records a single verification into the history store
// and, when a baseline is configured, diffs the fresh digest against it.
// The baseline is resolved before the append, so `-label X
// -diff-against X` compares against the previous run labeled X, not
// this one.
func (hd *histDiff) finishReport(rep *microsampler.Report, digest *microsampler.ReportDigest, digestJSON []byte, elapsed time.Duration) error {
	if !hd.active() {
		return nil
	}
	baseLabel, baseData, err := hd.baseline(microsampler.HistoryKindReport, "digest")
	if err != nil {
		return err
	}
	if hd.store != nil {
		rec := microsampler.HistoryRecord{
			Label: hd.label, Workload: rep.Workload, Kind: microsampler.HistoryKindReport,
			Summary: rep.Summary(), ElapsedMillis: elapsed.Milliseconds(),
		}
		if _, err := hd.store.Append(rec, map[string][]byte{"digest": digestJSON}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "microsampler: history: recorded %s / %s\n", rec.Label, rec.Workload)
	}
	if baseData == nil {
		return nil
	}
	var base microsampler.ReportDigest
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("baseline digest %s: %w", baseLabel, err)
	}
	d := microsampler.BuildDiff(&base, digest, microsampler.DiffOptions{
		FromLabel: baseLabel, ToLabel: hd.label, VDelta: hd.vdelta,
	})
	data, err := d.JSON()
	if err != nil {
		return err
	}
	if err := hd.writeDiff(data, d.HTML(&base, digest)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "microsampler: diff vs %s: %d flip(s), %d regression(s), %d improvement(s)\n",
		baseLabel, len(d.Flips), d.Regressions, d.Improvements)
	if d.Regression() {
		return fmt.Errorf("verdict regression vs %s: %d unit(s) flipped clean → leaky", baseLabel, d.Regressions)
	}
	return nil
}

// finishMatrix is finishReport for a grid sweep: the diffable artifact
// is the matrix artifact itself, and the record summarises the cells.
func (hd *histDiff) finishMatrix(art *microsampler.MatrixArtifact, artJSON []byte, elapsed time.Duration) error {
	if !hd.active() {
		return nil
	}
	baseLabel, baseData, err := hd.baseline(microsampler.HistoryKindMatrix, "matrix")
	if err != nil {
		return err
	}
	if hd.store != nil {
		rec := microsampler.HistoryRecord{
			Label: hd.label, Workload: art.Workload, Kind: microsampler.HistoryKindMatrix,
			Summary: art.Summary(), ElapsedMillis: elapsed.Milliseconds(),
		}
		if _, err := hd.store.Append(rec, map[string][]byte{"matrix": artJSON}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "microsampler: history: recorded %s / %s\n", rec.Label, rec.Workload)
	}
	if baseData == nil {
		return nil
	}
	var base microsampler.MatrixArtifact
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("baseline matrix %s: %w", baseLabel, err)
	}
	d := microsampler.BuildMatrixDiff(&base, art, microsampler.DiffOptions{
		FromLabel: baseLabel, ToLabel: hd.label, VDelta: hd.vdelta,
	})
	data, err := d.JSON()
	if err != nil {
		return err
	}
	if err := hd.writeDiff(data, d.HTML(&base, art)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "microsampler: diff vs %s: %d common cell(s), %d flip(s), %d regression(s), %d improvement(s)\n",
		baseLabel, d.Cells, len(d.Flips), d.Regressions, d.Improvements)
	if d.Regression() {
		return fmt.Errorf("verdict regression vs %s: %d cell(s) flipped clean → leaky", baseLabel, d.Regressions)
	}
	return nil
}
