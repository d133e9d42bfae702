package msd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry"
)

func getProgress(t *testing.T, base, id string) (progressView, int) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v progressView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// TestProgressMonotonicOnLiveJob drives a fake verification step by
// step through a channel handshake and polls /progress between steps:
// the reported cycle count must increase monotonically while the job
// runs, and the terminal reading must hold the final totals.
func TestProgressMonotonicOnLiveJob(t *testing.T) {
	const steps = 5
	step := make(chan struct{})
	stepped := make(chan struct{})
	reg := telemetry.NewRegistry()
	_, ts := newFakeServer(t, Config{Workers: 1, Metrics: reg},
		func(j *Job) (*core.Report, error) {
			for i := 0; i < steps; i++ {
				<-step
				j.probe.AddCycles(1000)
				stepped <- struct{}{}
			}
			// Hold the job in the running state until the test has
			// taken its final mid-flight reading.
			<-step
			rep := fakeReport()
			rep.SimCycles = steps * 1000
			return rep, nil
		})

	v, code := submitJob(t, ts.URL, JobRequest{Source: "fake"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var last int64
	for i := 0; i < steps; i++ {
		step <- struct{}{}
		<-stepped
		pg, code := getProgress(t, ts.URL, v.ID)
		if code != http.StatusOK {
			t.Fatalf("progress step %d: status %d", i, code)
		}
		if pg.Status != string(StatusRunning) {
			t.Fatalf("progress step %d: status %q want running", i, pg.Status)
		}
		if pg.Cycles <= last && i > 0 {
			t.Fatalf("cycles not increasing: step %d reports %d after %d", i, pg.Cycles, last)
		}
		if pg.Cycles != int64(i+1)*1000 {
			t.Errorf("step %d: cycles = %d want %d", i, pg.Cycles, (i+1)*1000)
		}
		last = pg.Cycles
	}
	step <- struct{}{} // release the held verification
	waitDone(t, ts.URL, v.ID)
	pg, _ := getProgress(t, ts.URL, v.ID)
	if pg.Status != string(StatusDone) || pg.Stage != "done" {
		t.Errorf("terminal progress: %+v", pg)
	}
	if pg.Cycles != steps*1000 {
		t.Errorf("terminal cycles = %d want %d", pg.Cycles, steps*1000)
	}

	// The probe's cycle deltas also feed the daemon-wide counter.
	metrics := scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, "msd_job_cycles_total 5000") {
		t.Errorf("msd_job_cycles_total missing or wrong in scrape")
	}
	if !strings.Contains(metrics, "msd_queue_oldest_age_seconds") {
		t.Error("msd_queue_oldest_age_seconds gauge not exposed")
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestProgressUnknownJob(t *testing.T) {
	_, ts := newFakeServer(t, Config{Workers: 1}, nil)
	if _, code := getProgress(t, ts.URL, "job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job progress: status %d want 404", code)
	}
}

// TestProgressOnRealVerification runs the genuine pipeline and checks
// the progress endpoint reports real, growing cycle counts: two
// consecutive readings taken while the job runs must be ordered, and
// the terminal reading must match the report.
func TestProgressOnRealVerification(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Workers: 1, Metrics: reg, FlightFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveDaemon(t, s)

	// A workload long enough to observe mid-flight (many iterations on
	// the big core).
	v, code := submitJob(t, ts, JobRequest{Source: `
	.text
_start:
	li   s2, 400
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	mul  t0, s2, s2
	mul  t0, t0, s2
	mul  t0, t0, s2
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li a0, 0
	li a7, 93
	ecall
`, Runs: 2, Config: "small"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var readings []int64
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		pg, code := getProgress(t, ts, v.ID)
		if code != http.StatusOK {
			t.Fatalf("progress: %d", code)
		}
		if pg.Status == string(StatusDone) || pg.Status == string(StatusFailed) {
			break
		}
		if pg.Status == string(StatusRunning) && pg.Cycles > 0 {
			readings = append(readings, pg.Cycles)
		}
	}
	done := waitDone(t, ts, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("job failed: %+v", done)
	}
	for i := 1; i < len(readings); i++ {
		if readings[i] < readings[i-1] {
			t.Fatalf("cycle readings regressed: %v", readings)
		}
	}
	pg, _ := getProgress(t, ts, v.ID)
	if pg.Cycles < done.SimCycles || pg.Stage != "done" {
		t.Errorf("terminal progress %+v vs view %+v", pg, done)
	}
	if pg.RunsDone != 2 || pg.TotalRuns != 2 {
		t.Errorf("terminal runs = %d/%d want 2/2", pg.RunsDone, pg.TotalRuns)
	}
}

// serveDaemon exposes a ready-built Server over httptest and registers
// drain/close cleanups, returning the base URL.
func serveDaemon(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts.URL
}

// TestFailedJobLeavesPostmortem fails a real verification (a ~1600-cycle
// kernel under a 1000-cycle budget): the job must fail with the cycle
// budget error and leave a readable Perfetto post-mortem artifact,
// which survives a daemon restart when journaled.
func TestFailedJobLeavesPostmortem(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:      1,
		JournalDir:   dir,
		FlightFrames: 128,
	}
	cfg.verify = func(j *Job) (*core.Report, error) {
		return core.Verify(core.Workload{Name: "overrun", Source: `
_start:
	li   s2, 200
	roi.begin
loop:
	andi s3, s2, 1
	iter.begin s3
	mul  t0, s2, s2
	iter.end
	addi s2, s2, -1
	bnez s2, loop
	roi.end
	li a0, 0
	li a7, 93
	ecall
`}, core.Options{
			Config:               sim.SmallBoom(),
			FlightRecorderFrames: cfg.FlightFrames,
			MaxCycles:            1000,
			Probe:                j.probe,
		})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := serveDaemon(t, s)

	v, code := submitJob(t, ts, JobRequest{Source: "overrun"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts, v.ID)
	if done.Status != string(StatusFailed) {
		t.Fatalf("overrunning job: %+v", done)
	}
	if !strings.Contains(done.Error, sim.ErrMaxCycles.Error()) {
		t.Errorf("failure does not carry the cycle budget error: %q", done.Error)
	}
	if len(done.Artifacts) != 1 || done.Artifacts[0] != "postmortem" {
		t.Fatalf("failed job artifacts = %v want [postmortem]", done.Artifacts)
	}
	checkPostmortem(t, ts, v.ID)

	// Restart over the same journal: the post-mortem must still serve.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
	s2, err := New(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := serveDaemon(t, s2)
	got, code := getView(t, ts2, v.ID)
	if code != http.StatusOK || got.Status != string(StatusFailed) {
		t.Fatalf("recovered failed job: code=%d %+v", code, got)
	}
	checkPostmortem(t, ts2, v.ID)
}

// checkPostmortem downloads a job's postmortem artifact and validates
// it is a well-formed Perfetto counter trace.
func checkPostmortem(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/postmortem")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("postmortem download: status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("postmortem not valid JSON: %v", err)
	}
	counters := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			counters[ev.Name] = true
		}
	}
	for _, name := range []string{"rob", "sq", "lq", "mshr", "lfb"} {
		if !counters[name] {
			t.Errorf("postmortem missing %q counter series", name)
		}
	}
	if doc.OtherData["source"] != "microsampler flight recorder" {
		t.Errorf("postmortem otherData = %v", doc.OtherData)
	}
}
