package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microsampler/internal/core"
)

// fakeMatrix hand-builds a two-cell sweep result — one clean cell, one
// leaky — so matrix job tests never pay for a simulation. The cells
// carry no Report, which is the recovery shape too: artifact rendering
// must cope without one.
func fakeMatrix() *core.Matrix {
	return &core.Matrix{
		Workload: "fake",
		Grid:     []core.Axis{{Name: "predictor", Values: []string{"gshare", "tage"}}},
		Cells: []core.CellResult{
			{
				Cell:       core.Cell{Name: "predictor=gshare", Axes: []string{"predictor"}, Values: []string{"gshare"}},
				ConfigName: "MegaBoom",
				Iterations: 8, SimCycles: 100,
			},
			{
				Cell:       core.Cell{Name: "predictor=tage", Axes: []string{"predictor"}, Values: []string{"tage"}},
				ConfigName: "MegaBoom",
				Leaky:      true,
				Flagged:    []core.UnitVerdict{{Unit: "TAGE-PRED", V: 0.9, P: 0.001}},
				MaxV:       0.9, MaxVUnit: "TAGE-PRED",
				Iterations: 8, SimCycles: 120,
			},
		},
	}
}

func submitMatrix(t *testing.T, base string, req JobRequest) (jobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func TestMatrixJobEndToEnd(t *testing.T) {
	var gotMatrix string
	cfg := Config{Workers: 1}
	cfg.verifyMatrix = func(j *Job) (*core.Matrix, error) {
		gotMatrix = j.Req.Matrix
		return fakeMatrix(), nil
	}
	_, ts := newFakeServer(t, cfg, nil)

	// The batch endpoint defaults an absent grid spec to "default".
	v, code := submitMatrix(t, ts.URL, JobRequest{Workload: "CT-DIV"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("matrix job did not finish clean: %+v", done)
	}
	if gotMatrix != "default" {
		t.Errorf("verify saw matrix spec %q, want \"default\"", gotMatrix)
	}

	// The grid digest rides on the job view.
	if done.Cells != 2 {
		t.Errorf("cells = %d want 2", done.Cells)
	}
	if len(done.LeakyCells) != 1 || done.LeakyCells[0] != "predictor=tage" {
		t.Errorf("leakyCells = %v", done.LeakyCells)
	}
	if done.Leaky == nil || !*done.Leaky {
		t.Errorf("matrix job with a leaky cell must be leaky: %+v", done)
	}
	if len(done.LeakyUnits) != 1 || done.LeakyUnits[0] != "TAGE-PRED" {
		t.Errorf("leakyUnits = %v", done.LeakyUnits)
	}
	if done.Iterations != 16 || done.SimCycles != 220 {
		t.Errorf("totals = %d iters / %d cycles, want 16 / 220", done.Iterations, done.SimCycles)
	}

	// Both matrix artifacts are downloadable with their content types.
	for name, wantType := range map[string]string{
		"matrix":      "application/json",
		"matrix.html": "text/html; charset=utf-8",
	} {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantType {
			t.Errorf("%s content type %q want %q", name, ct, wantType)
		}
		switch name {
		case "matrix":
			var art struct {
				Workload string `json:"workload"`
				Cells    []struct {
					Name  string `json:"name"`
					Leaky bool   `json:"leaky"`
				} `json:"cells"`
			}
			if err := json.Unmarshal(data, &art); err != nil {
				t.Fatalf("matrix artifact invalid JSON: %v", err)
			}
			if art.Workload != "fake" || len(art.Cells) != 2 || !art.Cells[1].Leaky {
				t.Errorf("matrix artifact shape: %+v", art)
			}
		case "matrix.html":
			doc := string(data)
			for _, want := range []string{"<svg", "predictor=tage", "TAGE-PRED"} {
				if !strings.Contains(doc, want) {
					t.Errorf("matrix.html missing %q", want)
				}
			}
		}
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMatrixValidation(t *testing.T) {
	_, ts := newFakeServer(t, Config{Workers: 1}, nil)
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"unknown axis", JobRequest{Workload: "CT-DIV", Matrix: "warp=on,off"}},
		{"unknown value", JobRequest{Workload: "CT-DIV", Matrix: "predictor=gshare,perceptron"}},
		{"duplicate axis", JobRequest{Workload: "CT-DIV", Matrix: "base=mega;base=small"}},
		{"bad cellParallel", JobRequest{Workload: "CT-DIV", Matrix: "default", CellParallel: -5}},
		{"no program", JobRequest{Matrix: "default"}},
	}
	for _, tc := range cases {
		if _, code := submitMatrix(t, ts.URL, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", tc.name, code)
		}
	}
	// The same matrix fields validate on the plain submit path too.
	if _, code := submitJob(t, ts.URL, JobRequest{Workload: "CT-DIV", Matrix: "warp=on"}); code != http.StatusBadRequest {
		t.Error("plain submit accepted a bad grid spec")
	}
}

func TestMatrixFailedSweep(t *testing.T) {
	// A sweep-level failure (not a cell failure) must fail the job and
	// surface the error, exactly like single-verification failures.
	cfg := Config{Workers: 1}
	cfg.verifyMatrix = func(*Job) (*core.Matrix, error) {
		panic("sweep exploded") // the panic guard must contain this
	}
	_, ts := newFakeServer(t, cfg, nil)
	v, code := submitMatrix(t, ts.URL, JobRequest{Workload: "CT-DIV"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusFailed) {
		t.Fatalf("status %s want failed", done.Status)
	}
	if !strings.Contains(done.Error, "sweep exploded") {
		t.Errorf("error %q does not carry the panic", done.Error)
	}
}

func TestMatrixJournalRecovery(t *testing.T) {
	// A finished matrix job must survive a daemon restart: grid digest
	// on the view, artifacts reloaded from disk.
	dir := t.TempDir()
	cfgA := Config{Workers: 1}
	cfgA.verifyMatrix = func(*Job) (*core.Matrix, error) { return fakeMatrix(), nil }
	sA, tsA := newJournaledServer(t, dir, cfgA, nil)
	v, code := submitMatrix(t, tsA.URL, JobRequest{Workload: "CT-DIV", Matrix: "predictor=gshare,tage"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitDone(t, tsA.URL, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	sB, err := New(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	tsB := httptest.NewServer(sB.Handler())
	defer tsB.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Drain(ctx)
	}()

	got, code := getView(t, tsB.URL, v.ID)
	if code != http.StatusOK || got.Status != string(StatusDone) {
		t.Fatalf("recovered job: %d %+v", code, got)
	}
	if got.Cells != 2 || len(got.LeakyCells) != 1 || got.LeakyCells[0] != "predictor=tage" {
		t.Errorf("grid digest lost at recovery: %+v", got)
	}
	resp, err := http.Get(tsB.URL + "/api/v1/jobs/" + v.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !json.Valid(data) {
		t.Fatalf("matrix artifact not recovered: %d", resp.StatusCode)
	}
}

func TestMatrixRealPipeline(t *testing.T) {
	// One genuine sweep through the daemon: the TAGE-HIST config-flip
	// workload over the predictor axis, flagged only in the tage cell.
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("msd.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()

	v, code := submitMatrix(t, ts.URL, JobRequest{
		Workload: "TAGE-HIST", Matrix: "predictor=gshare,tage", Runs: 2, Warmup: 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("real matrix job: %+v", done)
	}
	if done.Cells != 2 {
		t.Errorf("cells = %d want 2", done.Cells)
	}
	if len(done.LeakyCells) != 1 || done.LeakyCells[0] != "predictor=tage" {
		t.Errorf("leakyCells = %v, want only predictor=tage", done.LeakyCells)
	}
	for _, u := range done.LeakyUnits {
		if u == "TAGE-PRED" {
			return
		}
	}
	t.Errorf("TAGE-PRED missing from leakyUnits %v", done.LeakyUnits)
}

// TestMatrixIgnoresMeasureStages: a matrix job renders no stage
// breakdown, so measureStages must not add the untraced timing pass —
// the sweep simulates exactly the cycles of the same sweep without it.
func TestMatrixIgnoresMeasureStages(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("msd.New: %v", err)
	}
	base := newTestHTTP(t, srv)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()

	cycles := func(req JobRequest) float64 {
		t.Helper()
		before := scrapeMetric(t, base, "msd_job_cycles_total")
		v, code := submitMatrix(t, base, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		if done := waitDone(t, base, v.ID); done.Status != string(StatusDone) || done.Cached {
			t.Fatalf("matrix job not freshly computed: %+v", done)
		}
		return scrapeMetric(t, base, "msd_job_cycles_total") - before
	}
	req := JobRequest{Workload: "TAGE-HIST", Matrix: "predictor=tage", Runs: 2, Warmup: 2}
	plain := cycles(req)
	req.MeasureStages = true
	if staged := cycles(req); plain == 0 || staged != plain {
		t.Errorf("measureStages matrix job simulated %v cycles, want %v (one pass per run)", staged, plain)
	}
}
