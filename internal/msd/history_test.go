package msd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/stats"
	"microsampler/internal/trace"
)

// fakeCleanReport is fakeReport's clean twin: every iteration hashes
// identically regardless of class, so no unit is flagged.
func fakeCleanReport() *core.Report {
	const iters = 8
	rep := &core.Report{
		Workload:   "fake",
		Config:     "TestBoom",
		Runs:       1,
		SimCycles:  1234,
		IterHashes: map[trace.Unit][]uint64{},
	}
	hashes := make([]uint64, 0, iters)
	for i := 0; i < iters; i++ {
		rep.Iterations = append(rep.Iterations, trace.IterSample{Class: uint64(i % 2), Cycles: 10})
		hashes = append(hashes, 100)
	}
	rep.IterHashes[trace.SQADDR] = hashes
	tab := stats.NewTable()
	for i, h := range hashes {
		tab.Add(rep.Iterations[i].Class, h, 1)
	}
	rep.Units = append(rep.Units, core.UnitResult{
		Unit:  trace.SQADDR,
		Table: tab,
		Assoc: tab.Analyze(),
	})
	return rep
}

func postDiff(t *testing.T, base string, req map[string]any) (map[string]any, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// TestDaemonHistoryAndDiff: finished jobs land in the history store
// under their label, /api/v1/history lists and filters them, and
// /api/v1/diff detects the clean→leaky flip between two labels,
// feeding msd_verdict_flips_total.
func TestDaemonHistoryAndDiff(t *testing.T) {
	cfg := Config{Workers: 1, JournalDir: t.TempDir()}
	_, ts := newFakeServer(t, cfg, func(j *Job) (*core.Report, error) {
		if j.Req.Label == "clean" {
			return fakeCleanReport(), nil
		}
		return fakeReport(), nil
	})

	for _, label := range []string{"clean", "leaky"} {
		v, code := submitJob(t, ts.URL, JobRequest{Source: label, Label: label})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", label, code)
		}
		done := waitDone(t, ts.URL, v.ID)
		if done.Status != string(StatusDone) {
			t.Fatalf("job %s failed: %+v", label, done)
		}
		if done.Label != label {
			t.Errorf("job view label = %q want %q", done.Label, label)
		}
	}

	// The digest artifact is downloadable and parses as a digest.
	resp, err := http.Get(ts.URL + "/api/v1/jobs?label=leaky")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].Label != "leaky" {
		t.Fatalf("?label=leaky list: %+v", list.Jobs)
	}

	// History lists both runs; ?label= narrows to one.
	resp, err = http.Get(ts.URL + "/api/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hist.Records) != 2 {
		t.Fatalf("history records = %d want 2", len(hist.Records))
	}
	if k := hist.Records[0]["kind"]; k != "report" {
		t.Errorf("record kind = %v want report", k)
	}
	resp, err = http.Get(ts.URL + "/api/v1/history?label=clean")
	if err != nil {
		t.Fatal(err)
	}
	hist.Records = nil
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hist.Records) != 1 || hist.Records[0]["label"] != "clean" {
		t.Fatalf("?label=clean records: %+v", hist.Records)
	}

	// clean → leaky is a regression with one flip.
	out, code := postDiff(t, ts.URL, map[string]any{"from": "clean", "to": "leaky"})
	if code != http.StatusOK {
		t.Fatalf("diff: %d %v", code, out)
	}
	if out["kind"] != "report" || out["regression"] != true || out["flips"] != float64(1) {
		t.Errorf("diff clean→leaky: %v", out)
	}

	// leaky → clean is the same flip seen as an improvement.
	out, code = postDiff(t, ts.URL, map[string]any{"from": "leaky", "to": "clean"})
	if code != http.StatusOK || out["regression"] != false || out["improvements"] != float64(1) {
		t.Errorf("diff leaky→clean: %d %v", code, out)
	}

	// Both diffs surfaced their flip in the counter, and the build-info
	// gauge is part of the exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	_, _ = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(metrics.String(), "msd_verdict_flips_total 2") {
		t.Errorf("metrics missing msd_verdict_flips_total 2:\n%s", metrics.String())
	}
	if !strings.Contains(metrics.String(), "msd_build_info{") {
		t.Error("metrics missing msd_build_info gauge")
	}
}

// TestDaemonMatrixDiff: matrix jobs file their artifact under the
// matrix kind and the diff endpoint flags a cell flip between labels.
func TestDaemonMatrixDiff(t *testing.T) {
	cfg := Config{Workers: 1, JournalDir: t.TempDir()}
	cfg.verifyMatrix = func(j *Job) (*core.Matrix, error) {
		m := fakeMatrix()
		if j.Req.Label == "clean" {
			for i := range m.Cells {
				m.Cells[i].Leaky = false
				m.Cells[i].Flagged = nil
				m.Cells[i].MaxV = 0
				m.Cells[i].MaxVUnit = ""
			}
		}
		return m, nil
	}
	_, ts := newFakeServer(t, cfg, nil)

	for i, label := range []string{"clean", "current"} {
		v, code := submitMatrix(t, ts.URL, JobRequest{Workload: "CT-DIV", SeedOffset: i, Label: label})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", label, code)
		}
		if done := waitDone(t, ts.URL, v.ID); done.Status != string(StatusDone) {
			t.Fatalf("matrix job %s failed: %+v", label, done)
		}
	}

	out, code := postDiff(t, ts.URL, map[string]any{"from": "clean", "to": "current"})
	if code != http.StatusOK {
		t.Fatalf("matrix diff: %d %v", code, out)
	}
	if out["kind"] != "matrix" || out["regression"] != true || out["flips"] != float64(1) {
		t.Errorf("matrix diff clean→current: %v", out)
	}
	diff, ok := out["diff"].(map[string]any)
	if !ok {
		t.Fatalf("diff payload missing: %v", out)
	}
	if diff["fromLabel"] != "clean" || diff["toLabel"] != "current" {
		t.Errorf("diff labels: %v", diff)
	}

	// An unknown baseline label is a 404, not a silent empty diff.
	if _, code := postDiff(t, ts.URL, map[string]any{"from": "nope", "to": "current"}); code != http.StatusNotFound {
		t.Errorf("diff with unknown baseline: %d want 404", code)
	}
}

// TestHistoryDisabled: without a journal the history and diff
// endpoints answer 404 instead of pretending an empty history.
func TestHistoryDisabled(t *testing.T) {
	_, ts := newFakeServer(t, Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/api/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("history without store: %d want 404", resp.StatusCode)
	}
	if _, code := postDiff(t, ts.URL, map[string]any{"from": "a", "to": "b"}); code != http.StatusNotFound {
		t.Errorf("diff without store: %d want 404", code)
	}
}

// TestHistorySurvivesRestart: the history of report and matrix jobs —
// a fresh run, its cache hit and a matrix sweep — reads the same after
// a drain and a restart over the journal as before the drain. A job
// that ran counts its elapsed time from its start record; a hit, which
// never ran, counts none.
func TestHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	slow := func(*Job) (*core.Report, error) {
		time.Sleep(20 * time.Millisecond)
		return fakeReport(), nil
	}
	cfg := Config{Workers: 1, CacheEntries: 8}
	cfg.verifyMatrix = func(*Job) (*core.Matrix, error) { return fakeMatrix(), nil }
	s1, ts1 := newJournaledServer(t, dir, cfg, slow)
	req := JobRequest{Source: "nop", Label: "v1"}
	run, _ := submitJob(t, ts1.URL, req)
	waitDone(t, ts1.URL, run.ID)
	if hit, _ := submitJob(t, ts1.URL, req); !hit.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", hit)
	}
	m, _ := submitMatrix(t, ts1.URL, JobRequest{Workload: "CT-DIV", Label: "v1"})
	waitDone(t, ts1.URL, m.ID)

	recs := historyRecords(t, ts1.URL)
	if len(recs) != 3 || recs[0].Kind != "report" || recs[1].Kind != "report" || recs[2].Kind != "matrix" {
		t.Fatalf("history = %+v, want report, report, matrix", recs)
	}
	if recs[0].ElapsedMillis < 20 || recs[1].ElapsedMillis != 0 {
		t.Errorf("elapsedMillis: run %d (want >= 20), hit %d (want 0)",
			recs[0].ElapsedMillis, recs[1].ElapsedMillis)
	}
	before := historyBody(t, ts1.URL)
	drainNow(t, s1)

	s2, ts2 := newJournaledServer(t, dir, cfg, slow)
	defer drainNow(t, s2)
	if after := historyBody(t, ts2.URL); !bytes.Equal(after, before) {
		t.Errorf("history after restart:\n%s\nbefore drain:\n%s", after, before)
	}
}

// TestLabelDoesNotSplitCache: the history label is execution metadata;
// two submissions differing only in label share one cache key.
func TestLabelDoesNotSplitCache(t *testing.T) {
	var req1, req2 JobRequest
	if err := json.Unmarshal([]byte(`{"source":"nop","runs":4}`), &req1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"source":"nop","runs":4,"label":"abc123"}`), &req2); err != nil {
		t.Fatal(err)
	}
	k1, k2 := jobCacheKey(req1), jobCacheKey(req2)
	if k1 == "" || k1 != k2 {
		t.Errorf("label changed the cache key: %q vs %q", k1, k2)
	}
}
