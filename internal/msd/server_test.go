package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/stats"
	"microsampler/internal/telemetry"
	"microsampler/internal/trace"
)

// fakeReport hand-builds the minimal report renderArtifacts needs, so
// server tests never pay for a simulation.
func fakeReport() *core.Report {
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
		class := uint64(i % 2)
		rep.Iterations = append(rep.Iterations, trace.IterSample{Class: class, Cycles: 10})
		hashes = append(hashes, 100+class)
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

// newFakeServer builds a Server whose verify step returns fakeReport
// instantly (or whatever fn decides).
func newFakeServer(t *testing.T, cfg Config, fn func(*Job) (*core.Report, error)) (*Server, *httptest.Server) {
	t.Helper()
	if fn == nil {
		fn = func(*Job) (*core.Report, error) { return fakeReport(), nil }
	}
	cfg.verify = fn
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("msd.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func submitJob(t *testing.T, base string, req JobRequest) (jobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
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

func waitDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case string(StatusDone), string(StatusFailed):
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobView{}
}

func TestDaemonEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newFakeServer(t, Config{Workers: 2, Metrics: reg}, nil)

	v, code := submitJob(t, ts.URL, JobRequest{Source: "fake"})
	if code != http.StatusAccepted || v.ID == "" || v.Status != string(StatusQueued) {
		t.Fatalf("submit: code=%d view=%+v", code, v)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("job failed: %+v", done)
	}
	if done.Summary == nil || !done.Leaky {
		t.Errorf("fake report is leaky, view says %+v", done.Summary)
	}
	if done.SimCycles != 1234 || done.Iterations != 8 {
		t.Errorf("view stats: %+v", done)
	}
	wantArts := []string{"digest", "heatmap", "heatmap.html", "provenance", "provenance.html", "report", "trace"}
	if fmt.Sprint(done.Artifacts) != fmt.Sprint(wantArts) {
		t.Errorf("artifacts %v want %v", done.Artifacts, wantArts)
	}

	// Every artifact downloads with its content type and parses.
	for _, art := range wantArts {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/" + art)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", art, resp.StatusCode)
			continue
		}
		ct := resp.Header.Get("Content-Type")
		if art == "heatmap.html" {
			if !strings.HasPrefix(ct, "text/html") || !strings.Contains(body.String(), "<svg") {
				t.Errorf("heatmap.html: ct=%q", ct)
			}
			continue
		}
		if art == "provenance.html" {
			if !strings.HasPrefix(ct, "text/html") || !strings.Contains(body.String(), "Leakage provenance") {
				t.Errorf("provenance.html: ct=%q", ct)
			}
			continue
		}
		if ct != "application/json" {
			t.Errorf("%s: ct=%q", art, ct)
		}
		var parsed map[string]any
		if err := json.Unmarshal(body.Bytes(), &parsed); err != nil {
			t.Errorf("%s: invalid JSON: %v", art, err)
		}
		if art == "trace" {
			if _, ok := parsed["traceEvents"]; !ok {
				t.Error("trace artifact missing traceEvents")
			}
		}
	}

	// The job list includes the finished job.
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
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
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("list: %+v", list)
	}

	// /metrics is Prometheus text and carries the daemon series.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	_, _ = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"msd_jobs_submitted_total 1",
		"msd_jobs_completed_total 1",
		"# TYPE msd_job_seconds histogram",
		"msd_job_seconds_count 1",
		"msd_jobs_inflight 0",
		"msd_queue_depth",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Liveness/readiness and pprof respond.
	for path, want := range map[string]int{
		"/healthz":      http.StatusOK,
		"/readyz":       http.StatusOK,
		"/debug/pprof/": http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: %d want %d", path, resp.StatusCode, want)
		}
	}
}

func TestDaemonValidation(t *testing.T) {
	_, ts := newFakeServer(t, Config{}, nil)
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both", `{"workload":"ME-NAIVE","source":"x"}`},
		{"unknown workload", `{"workload":"NOPE"}`},
		{"bad config", `{"source":"x","config":"huge"}`},
		{"bad runs", `{"source":"x","runs":-1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", tc.name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d want 404", resp.StatusCode)
	}
}

func TestDaemonArtifactLifecycle(t *testing.T) {
	release := make(chan struct{})
	_, ts := newFakeServer(t, Config{Workers: 1}, func(*Job) (*core.Report, error) {
		<-release
		return fakeReport(), nil
	})
	v, _ := submitJob(t, ts.URL, JobRequest{Source: "fake"})

	// While the job runs, artifacts are a conflict, not a 404.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running artifact: %d want 409", resp.StatusCode)
	}
	close(release)
	waitDone(t, ts.URL, v.ID)

	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: %d want 404", resp.StatusCode)
	}
}

func TestDaemonQueueFullAndDrain(t *testing.T) {
	release := make(chan struct{})
	s, ts := newFakeServer(t, Config{Workers: 1, QueueSize: 1},
		func(*Job) (*core.Report, error) {
			<-release
			return fakeReport(), nil
		})

	// First job occupies the worker, second fills the queue; the third
	// submission must bounce with 503.
	first, code := submitJob(t, ts.URL, JobRequest{Source: "a"})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait for the worker to pick up the first job so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := http.Get(ts.URL + "/api/v1/jobs/" + first.ID)
		var v jobView
		_ = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Status == string(StatusRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code = submitJob(t, ts.URL, JobRequest{Source: "b"}); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	if _, code = submitJob(t, ts.URL, JobRequest{Source: "c"}); code != http.StatusServiceUnavailable {
		t.Errorf("over-capacity submit: %d want 503", code)
	}

	// Drain finishes the queued work and flips readiness.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d want 503", resp.StatusCode)
	}
	if _, code = submitJob(t, ts.URL, JobRequest{Source: "d"}); code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: %d want 503", code)
	}
	// Both accepted jobs completed during the drain.
	for _, id := range []string{"job-1", "job-2"} {
		v := waitDone(t, ts.URL, id)
		if v.Status != string(StatusDone) {
			t.Errorf("%s: %+v", id, v)
		}
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestDaemonFailedJob(t *testing.T) {
	_, ts := newFakeServer(t, Config{}, func(*Job) (*core.Report, error) {
		return nil, fmt.Errorf("synthetic failure")
	})
	v, _ := submitJob(t, ts.URL, JobRequest{Source: "x"})
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusFailed) || !strings.Contains(done.Error, "synthetic failure") {
		t.Errorf("failed job view: %+v", done)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("failed-job artifact: %d want 404", resp.StatusCode)
	}
}

func TestDaemonEviction(t *testing.T) {
	_, ts := newFakeServer(t, Config{Workers: 1, MaxJobs: 2}, nil)
	var last jobView
	for i := 0; i < 3; i++ {
		v, code := submitJob(t, ts.URL, JobRequest{Source: "x"})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		last = waitDone(t, ts.URL, v.ID)
		_ = last
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
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
	if len(list.Jobs) != 2 {
		t.Fatalf("retained %d jobs want 2: %+v", len(list.Jobs), list.Jobs)
	}
	if list.Jobs[0].ID != "job-2" || list.Jobs[1].ID != "job-3" {
		t.Errorf("eviction kept %s,%s want job-2,job-3",
			list.Jobs[0].ID, list.Jobs[1].ID)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job: %d want 404", resp.StatusCode)
	}
}

// leakyLoopSource is the tiny secret-dependent square-and-multiply
// inner loop used for real end-to-end daemon runs.
const leakyLoopSource = `
	.text
_start:
	li   s2, 20
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	mul  t0, s2, s2
	beqz s3, skip
	mul  t0, t0, s2
skip:
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li a0, 0
	li a7, 93
	ecall
`

// TestDaemonRealPipeline submits actual RV64 source and lets the real
// verification pipeline run it — the full submit → simulate → artifact
// path with no injected fakes.
func TestDaemonRealPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Workers: 1, Metrics: reg})
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

	v, code := submitJob(t, ts.URL, JobRequest{
		Source: leakyLoopSource, Config: "small", Runs: 2, Warmup: 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("real job: %+v", done)
	}
	if done.Summary == nil || !done.Leaky {
		t.Errorf("secret-dependent loop should be flagged leaky: %+v", done)
	}
	// The pipeline's own stage histograms land in the shared registry.
	text := reg.Snapshot().Prometheus()
	if !strings.Contains(text, "verify_stage_seconds") {
		t.Error("/metrics registry missing pipeline stage histograms")
	}
}

// BenchmarkMSDJobLatency measures end-to-end daemon job latency:
// HTTP submit of real source through simulation, analysis, artifact
// rendering, and the status poll observing completion.
func BenchmarkMSDJobLatency(b *testing.B) {
	s, err := New(Config{Workers: 1, MaxJobs: 4})
	if err != nil {
		b.Fatalf("msd.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()

	body, _ := json.Marshal(JobRequest{
		Source: leakyLoopSource, Config: "small", Runs: 2, Warmup: 2,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
			bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: %d", resp.StatusCode)
		}
		for {
			resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID)
			if err != nil {
				b.Fatal(err)
			}
			var st jobView
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if st.Status == string(StatusDone) {
				break
			}
			if st.Status == string(StatusFailed) {
				b.Fatalf("job failed: %s", st.Error)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRequestCarriesNoStrategy pins that execution strategy is the
// daemon's: "parallel" and "cellParallel" in a request are ignored, so a
// request carrying values no scheduler accepts still verifies, with the
// verdict and cache key of the bare request.
func TestRequestCarriesNoStrategy(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveDaemon(t, s)
	post := func(raw string) jobView {
		t.Helper()
		resp, err := http.Post(ts+"/api/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", raw, resp.StatusCode)
		}
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return waitDone(t, ts, v.ID)
	}
	keyOf := func(raw string) string {
		t.Helper()
		var req JobRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatal(err)
		}
		return jobCacheKey(req)
	}
	const bare = `{"workload":"ME-NAIVE","config":"small","runs":2,"warmup":2}`
	const strategy = `{"workload":"ME-NAIVE","config":"small","runs":2,"warmup":2,"parallel":-5,"cellParallel":7}`
	want, got := post(bare), post(strategy)
	if want.Status != string(StatusDone) || got.Status != string(StatusDone) {
		t.Fatalf("status: bare %s (%s), with strategy %s (%s)", want.Status, want.Error, got.Status, got.Error)
	}
	if !reflect.DeepEqual(want.Summary, got.Summary) {
		t.Errorf("verdict differs: bare %+v, with strategy %+v", want.Summary, got.Summary)
	}
	if keyOf(bare) == "" || keyOf(bare) != keyOf(strategy) {
		t.Errorf("cache key differs: bare %q, with strategy %q", keyOf(bare), keyOf(strategy))
	}
}
