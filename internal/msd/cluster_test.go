package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/history"
)

// fakePointResult is the deterministic verdict the executePoint seam
// returns; the iterations value doubles as a marker for which seam (or
// which incarnation) computed it.
func fakePointResult(iter int) cluster.PointResult {
	return cluster.PointResult{
		Summary: core.Summary{Leaky: true, LeakyUnits: []string{"TAGE-PRED"}, Iterations: iter, SimCycles: 1234},
		Digest:  []byte(`{"workload":"fake"}`),
	}
}

// newPointServer builds a Server whose per-point verification is the
// given seam, so cluster tests never pay for a simulation.
func newPointServer(t *testing.T, cfg Config, fn func(cluster.Point, string) cluster.PointResult) (*Server, *httptest.Server) {
	t.Helper()
	if fn == nil {
		fn = func(cluster.Point, string) cluster.PointResult { return fakePointResult(8) }
	}
	cfg.executePoint = fn
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("msd.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { drainNow(t, s) })
	return s, ts
}

func submitBatch(t *testing.T, base string, req BatchRequest) (batchView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v batchView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getBatch(t *testing.T, base, id string) (batchView, int) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/batch/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v batchView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func waitBatch(t *testing.T, base, id string) batchView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getBatch(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("batch %s: HTTP %d", id, code)
		}
		if v.Status == BatchDone {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("batch %s did not finish", id)
	return batchView{}
}

// executeOnWorker posts one point to a daemon's cluster execute
// endpoint, the way a coordinator dispatch does.
func executeOnWorker(t *testing.T, base string, p cluster.Point) (cluster.PointResult, int) {
	t.Helper()
	body, _ := json.Marshal(cluster.ExecuteRequest{Point: p})
	resp, err := http.Post(base+"/api/v1/cluster/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res cluster.PointResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return res, resp.StatusCode
}

func historyRecords(t *testing.T, base string) []history.Record {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Records []history.Record `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.Records
}

// TestBatchFanOutAcrossWorkers: a coordinator shards a mixed batch
// (single points plus a matrix entry exploded to cells) across two
// registered workers; every point lands exactly once and the per-point
// results carry the answering worker.
func TestBatchFanOutAcrossWorkers(t *testing.T) {
	var calls1, calls2 atomic.Int64
	_, w1 := newPointServer(t, Config{}, func(cluster.Point, string) cluster.PointResult {
		calls1.Add(1)
		return fakePointResult(8)
	})
	_, w2 := newPointServer(t, Config{}, func(cluster.Point, string) cluster.PointResult {
		calls2.Add(1)
		return fakePointResult(8)
	})
	coord, ts := newPointServer(t, Config{Coordinator: true}, func(cluster.Point, string) cluster.PointResult {
		t.Error("coordinator executed a point locally with healthy workers registered")
		return fakePointResult(8)
	})
	coord.members.Register("w1", w1.URL)
	coord.members.Register("w2", w2.URL)

	v, code := submitBatch(t, ts.URL, BatchRequest{
		Label: "pr10",
		Entries: []BatchEntry{
			{Workload: "ME-NAIVE", Runs: 2, Warmup: 2},
			{Workload: "TAGE-HIST", Matrix: "predictor=gshare,tage", Runs: 2, Warmup: 2},
		},
	})
	if code != http.StatusAccepted || v.ID != "batch-1" || v.Points != 3 {
		t.Fatalf("submit: code=%d view=%+v", code, v)
	}
	done := waitBatch(t, ts.URL, v.ID)
	if done.Done != 3 || done.Failed != 0 || done.Degraded {
		t.Fatalf("batch = %+v, want 3 done, none failed or degraded", done)
	}
	if got := calls1.Load() + calls2.Load(); got != 3 {
		t.Errorf("workers executed %d points, want 3 (exactly once each)", got)
	}
	if len(done.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(done.Results))
	}
	keys := map[string]bool{}
	for _, pv := range done.Results {
		if !pv.Done || pv.Result == nil {
			t.Fatalf("point %d not terminal: %+v", pv.Index, pv)
		}
		if w := pv.Result.Worker; w != "w1" && w != "w2" {
			t.Errorf("point %d answered by %q, want a registered worker", pv.Index, w)
		}
		if pv.Key == "" || keys[pv.Key] {
			t.Errorf("point %d key %q missing or duplicated", pv.Index, pv.Key)
		}
		keys[pv.Key] = true
	}

	// The worker roster is visible on the coordinator surface.
	resp, err := http.Get(ts.URL + "/api/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var roster struct {
		Workers []cluster.WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	if len(roster.Workers) != 2 {
		t.Errorf("workers = %+v, want 2", roster.Workers)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newPointServer(t, Config{Coordinator: true}, nil)
	for name, req := range map[string]BatchRequest{
		"empty":           {},
		"matrix+cell":     {Entries: []BatchEntry{{Workload: "ME-NAIVE", Matrix: "default", Cell: "predictor=tage"}}},
		"unknown":         {Entries: []BatchEntry{{Workload: "NO-SUCH-WORKLOAD"}}},
		"source+workload": {Entries: []BatchEntry{{Workload: "ME-NAIVE", Source: "nop"}}},
	} {
		if _, code := submitBatch(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: code=%d want 400", name, code)
		}
	}
	if _, code := getBatch(t, ts.URL, "batch-99"); code != http.StatusNotFound {
		t.Errorf("unknown batch: code=%d want 404", code)
	}
}

// TestRunsBoundOnEveryEntryPoint: the runs bound lives in
// Point.Resolve, so every submission path enforces it — report and
// matrix jobs, batches and direct cluster execution.
func TestRunsBoundOnEveryEntryPoint(t *testing.T) {
	_, ts := newPointServer(t, Config{Coordinator: true}, nil)
	for _, c := range []struct{ path, body string }{
		{"/api/v1/jobs", `{"workload":"ME-NAIVE","runs":1025}`},
		{"/api/v1/matrix", `{"workload":"ME-NAIVE","runs":1025}`},
		{"/api/v1/batch", `{"points":[{"workload":"ME-NAIVE","runs":1025}]}`},
		{"/api/v1/cluster/execute", `{"point":{"workload":"ME-NAIVE","runs":1025}}`},
		{"/api/v1/cluster/execute", `{"point":{"workload":"ME-NAIVE","runs":-1},"key":"k"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: code=%d want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// TestBatchWorkerDeathReassigns: the worker holding a point is marked
// dead mid-dispatch; the point must move to the surviving worker and
// complete without degrading — and the reassignment must be visible in
// the batch tallies.
func TestBatchWorkerDeathReassigns(t *testing.T) {
	var first atomic.Bool
	block := make(chan struct{})
	gotFirst := make(chan string, 1)
	seam := func(id string) func(cluster.Point, string) cluster.PointResult {
		return func(cluster.Point, string) cluster.PointResult {
			if first.CompareAndSwap(false, true) {
				gotFirst <- id
				<-block
				return cluster.PointResult{Err: "first attempt aborted"}
			}
			return fakePointResult(8)
		}
	}
	_, w1 := newPointServer(t, Config{}, seam("w1"))
	_, w2 := newPointServer(t, Config{}, seam("w2"))
	// Registered after the worker servers, so this cleanup unblocks the
	// stuck handler before httptest.Server.Close waits on it.
	t.Cleanup(func() { close(block) })

	coord, ts := newPointServer(t, Config{Coordinator: true}, func(cluster.Point, string) cluster.PointResult {
		t.Error("point degraded to coordinator-local execution")
		return fakePointResult(8)
	})
	coord.members.Register("w1", w1.URL)
	coord.members.Register("w2", w2.URL)

	v, code := submitBatch(t, ts.URL, BatchRequest{Entries: []BatchEntry{{Workload: "ME-NAIVE", Runs: 2, Warmup: 2}}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// Kill whichever worker won the rendezvous once its attempt is in
	// flight; the death watch cancels the attempt and reassigns.
	select {
	case id := <-gotFirst:
		coord.members.MarkDead(id)
	case <-time.After(10 * time.Second):
		t.Fatal("no worker ever received the point")
	}

	done := waitBatch(t, ts.URL, v.ID)
	if done.Done != 1 || done.Failed != 0 || done.Degraded {
		t.Fatalf("batch = %+v, want the point completed on the survivor", done)
	}
	if done.Reassigned < 1 {
		t.Errorf("reassigned = %d, want >= 1", done.Reassigned)
	}
	if res := done.Results[0].Result; res == nil || res.Worker == "" || res.Err != "" {
		t.Fatalf("result = %+v, want a healthy remote verdict", done.Results[0])
	}
}

// TestBatchDegradesWithNoWorkers: a coordinator with zero healthy
// workers executes the batch locally and flags both the points and the
// batch as degraded — graceful degradation, not failure.
func TestBatchDegradesWithNoWorkers(t *testing.T) {
	_, ts := newPointServer(t, Config{Coordinator: true}, nil)
	v, code := submitBatch(t, ts.URL, BatchRequest{Entries: []BatchEntry{
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2},
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2, SeedOffset: 7},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitBatch(t, ts.URL, v.ID)
	if done.Done != 2 || done.Failed != 0 {
		t.Fatalf("batch = %+v, want 2 done", done)
	}
	if !done.Degraded || done.DegradedPoints != 2 {
		t.Fatalf("batch = %+v, want both points degraded", done)
	}
	for _, pv := range done.Results {
		if pv.Result == nil || !pv.Result.Degraded || pv.Result.Worker != "" {
			t.Errorf("point %d = %+v, want a degraded local verdict", pv.Index, pv.Result)
		}
	}
}

// TestBatchPointFailureContained: a point whose verification fails
// carries the error in its own result — the batch completes and the
// other points are unaffected, mirroring core.CellResult.Err.
func TestBatchPointFailureContained(t *testing.T) {
	_, ts := newPointServer(t, Config{Coordinator: true}, func(p cluster.Point, _ string) cluster.PointResult {
		if p.SeedOffset == 7 {
			return cluster.PointResult{Err: "injected verification failure"}
		}
		return fakePointResult(8)
	})
	v, _ := submitBatch(t, ts.URL, BatchRequest{Entries: []BatchEntry{
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2},
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2, SeedOffset: 7},
	}})
	done := waitBatch(t, ts.URL, v.ID)
	if done.Done != 1 || done.Failed != 1 {
		t.Fatalf("batch = %+v, want 1 done + 1 failed", done)
	}
	var failed *cluster.PointResult
	for _, pv := range done.Results {
		if pv.Result != nil && pv.Result.Err != "" {
			failed = pv.Result
		}
	}
	if failed == nil || !strings.Contains(failed.Err, "injected verification failure") {
		t.Fatalf("failed point result = %+v", failed)
	}
}

// TestBatchJournalRecoveryResumes is the coordinator crash-recovery
// test: incarnation A is abandoned mid-batch with one point journaled
// and one still in flight; incarnation B over the same journal dir must
// rebuild the batch, keep A's journaled result (exactly-once — B never
// recomputes it), and finish only the remainder.
func TestBatchJournalRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	blockA := make(chan struct{})
	t.Cleanup(func() { close(blockA) })

	cfgA := Config{Coordinator: true, JournalDir: dir, WorkerTTL: 50 * time.Millisecond}
	cfgA.executePoint = func(p cluster.Point, _ string) cluster.PointResult {
		if p.Workload == "TAGE-HIST" {
			<-blockA // the point the "crash" interrupts
			return fakePointResult(999)
		}
		return fakePointResult(111) // incarnation-A marker
	}
	sA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	t.Cleanup(tsA.Close)

	v, code := submitBatch(t, tsA.URL, BatchRequest{Entries: []BatchEntry{
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2},
		{Workload: "TAGE-HIST", Runs: 2, Warmup: 2},
	}})
	if code != http.StatusAccepted || v.ID != "batch-1" {
		t.Fatalf("submit: code=%d view=%+v", code, v)
	}
	// Wait until the ME-NAIVE point's result is journaled (the journal
	// write precedes visibility in the view), then abandon A un-drained —
	// the closest in-process model of a SIGKILL.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if bv, _ := getBatch(t, tsA.URL, v.ID); bv.Done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first point never completed under incarnation A")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cfgB := Config{Coordinator: true, JournalDir: dir, WorkerTTL: 50 * time.Millisecond}
	cfgB.executePoint = func(cluster.Point, string) cluster.PointResult {
		return fakePointResult(222) // incarnation-B marker
	}
	sB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)
	t.Cleanup(func() { drainNow(t, sB) })

	done := waitBatch(t, tsB.URL, "batch-1")
	if done.Done != 2 || done.Failed != 0 {
		t.Fatalf("recovered batch = %+v, want both points done", done)
	}
	byWorkload := map[string]*cluster.PointResult{}
	for _, pv := range done.Results {
		byWorkload[pv.Workload] = pv.Result
	}
	if r := byWorkload["ME-NAIVE"]; r == nil || r.Iterations != 111 {
		t.Errorf("recovered point = %+v, want incarnation A's journaled verdict (111), not a recompute", r)
	}
	if r := byWorkload["TAGE-HIST"]; r == nil || r.Iterations != 222 {
		t.Errorf("resumed point = %+v, want incarnation B's fresh verdict (222)", r)
	}

	// The batch ID sequence continues past the recovered batch.
	v2, code := submitBatch(t, tsB.URL, BatchRequest{Entries: []BatchEntry{{Workload: "ME-NAIVE", Runs: 2, Warmup: 2}}})
	if code != http.StatusAccepted || v2.ID != "batch-2" {
		t.Errorf("post-recovery submit: code=%d id=%s want batch-2", code, v2.ID)
	}
	waitBatch(t, tsB.URL, v2.ID)
}

// TestFinishedBatchesRetained: finished batches fall under MaxJobs as
// finished jobs do — the oldest are evicted — and the bound holds again
// after a restart over the journal, whose evict records recovery
// honours.
func TestFinishedBatchesRetained(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Coordinator: true, MaxJobs: 2, JournalDir: dir}
	listBatches := func(base string) []string {
		t.Helper()
		resp, err := http.Get(base + "/api/v1/batch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Batches []batchView }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, b := range out.Batches {
			ids = append(ids, b.ID)
		}
		return ids
	}
	want := []string{"batch-4", "batch-5"}

	sA, tsA := newPointServer(t, cfg, nil)
	for i := range 5 {
		v, code := submitBatch(t, tsA.URL, BatchRequest{Entries: []BatchEntry{{Workload: "ME-NAIVE", SeedOffset: i}}})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		waitBatch(t, tsA.URL, v.ID)
	}
	if got := listBatches(tsA.URL); !slices.Equal(got, want) {
		t.Errorf("batches = %v, want %v", got, want)
	}
	drainNow(t, sA)

	_, tsB := newPointServer(t, cfg, nil)
	if got := listBatches(tsB.URL); !slices.Equal(got, want) {
		t.Errorf("batches after restart = %v, want %v", got, want)
	}
}

// TestBatchRecordsInAuditChain: batch-point and batch-done records are
// audit leaves — covered by the Merkle chain and tamper-evident.
func TestBatchRecordsInAuditChain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Coordinator: true, JournalDir: dir, AuditBatch: 2}
	cfg.executePoint = func(cluster.Point, string) cluster.PointResult { return fakePointResult(8) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	v, _ := submitBatch(t, ts.URL, BatchRequest{Entries: []BatchEntry{
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2},
		{Workload: "ME-NAIVE", Runs: 2, Warmup: 2, SeedOffset: 7},
	}})
	waitBatch(t, ts.URL, v.ID)
	drainNow(t, s)

	sum, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatalf("clean journal failed verification: %v", err)
	}
	// Two batch-point leaves plus the batch-done leaf.
	if sum.Terminal != 3 || sum.Pending != 0 {
		t.Errorf("summary = %+v, want 3 covered terminal records", sum)
	}

	// Flipping one audited batch verdict must break the chain.
	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"leaky":true`, `"leaky":false`, 1)
	if tampered == string(raw) {
		t.Fatal("no batch verdict found to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAuditLog(dir); err == nil {
		t.Error("tampered batch record passed audit verification")
	}
}

// TestRetryAfterCapped locks in the Config.MaxRetryAfter cap: even with
// a huge observed job duration and a saturated queue, the 503 hint may
// not exceed the cap.
func TestRetryAfterCapped(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s, ts := newFakeServer(t, Config{Workers: 1, QueueSize: 1, MaxRetryAfter: 2 * time.Second},
		func(*Job) (*core.Report, error) { <-release; return fakeReport(), nil })

	// Pretend jobs have been taking an hour each: uncapped, the hint for
	// a full queue would be thousands of seconds.
	s.mu.Lock()
	s.ewmaJobSec = 3600
	s.mu.Unlock()

	if _, code := submitJob(t, ts.URL, JobRequest{Source: "a"}); code != http.StatusAccepted {
		t.Fatal("submit a")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := getView(t, ts.URL, "job-1"); v.Status == string(StatusRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job-1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := submitJob(t, ts.URL, JobRequest{Source: "b"}); code != http.StatusAccepted {
		t.Fatal("submit b")
	}
	body, _ := json.Marshal(JobRequest{Source: "c"})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity: %d want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}
	if secs != 2 {
		t.Errorf("Retry-After = %d, want the 2s cap", secs)
	}
}

// TestRetryAfterCapDisabled: a negative MaxRetryAfter switches the cap
// off, restoring the raw queue-depth × duration estimate.
func TestRetryAfterCapDisabled(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueSize: 4, MaxRetryAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainNow(t, s) })
	s.mu.Lock()
	s.ewmaJobSec = 3600
	secs := s.retryAfterLocked()
	s.mu.Unlock()
	if secs < 3600 {
		t.Errorf("uncapped Retry-After = %d, want >= 3600", secs)
	}
}

// TestWorkerRestartNoDoubleHistory is the worker-side journal-replay
// dedup test: a worker restarted over the same cache and history
// directories must serve a replayed point from its disk cache and must
// NOT append a second history record for a verdict it already filed.
func TestWorkerRestartNoDoubleHistory(t *testing.T) {
	dir := t.TempDir()
	cacheDir, histDir := dir+"/cache", dir+"/history"
	point := cluster.Point{Workload: "ME-NAIVE", Runs: 2, Warmup: 2, Label: "pr10"}

	var computes1 atomic.Int64
	cfg1 := Config{CacheEntries: 8, CacheDir: cacheDir, HistoryDir: histDir}
	cfg1.executePoint = func(cluster.Point, string) cluster.PointResult {
		computes1.Add(1)
		return fakePointResult(8)
	}
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	res, code := executeOnWorker(t, ts1.URL, point)
	if code != http.StatusOK || res.Err != "" || res.Cached {
		t.Fatalf("first execute: code=%d res=%+v, want a fresh verdict", code, res)
	}
	if recs := historyRecords(t, ts1.URL); len(recs) != 1 || recs[0].Label != "pr10" {
		t.Fatalf("history after fresh compute = %+v, want one pr10 record", recs)
	}
	drainNow(t, s1)
	ts1.Close()

	// The restarted worker: same disk layers, fresh process. The
	// replayed point must be a cache hit that never reaches the seam or
	// the history store.
	cfg2 := Config{CacheEntries: 8, CacheDir: cacheDir, HistoryDir: histDir}
	cfg2.executePoint = func(cluster.Point, string) cluster.PointResult {
		t.Error("replayed point recomputed after restart")
		return fakePointResult(8)
	}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { drainNow(t, s2) })

	res, code = executeOnWorker(t, ts2.URL, point)
	if code != http.StatusOK || !res.Cached || res.Iterations != 8 {
		t.Fatalf("replayed execute: code=%d res=%+v, want a cached verdict", code, res)
	}
	if recs := historyRecords(t, ts2.URL); len(recs) != 1 {
		t.Fatalf("history after replay has %d records, want 1 — the verdict was double-reported", len(recs))
	}
	if n := computes1.Load(); n != 1 {
		t.Errorf("first incarnation computed %d times, want 1", n)
	}
}

// TestWorkerFillsFromCoordinatorStore: a worker whose local cache
// misses consults the coordinator's shared verdict store before
// simulating — the cross-node fill that makes reassignment after a
// worker death a cache hit.
func TestWorkerFillsFromCoordinatorStore(t *testing.T) {
	coord, tsCoord := newPointServer(t, Config{Coordinator: true}, nil)
	point := cluster.Point{Workload: "ME-NAIVE", Runs: 2, Warmup: 2}
	key, err := point.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Seed the coordinator's store the way a dying worker's last upload
	// would: PUT a fresh verdict under the canonical key.
	seeded := fakePointResult(77)
	body, _ := json.Marshal(seeded)
	req, _ := http.NewRequest(http.MethodPut, tsCoord.URL+"/api/v1/cache/"+key, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cache put: %d", resp.StatusCode)
	}

	workerCfg := Config{CacheEntries: 8, CoordinatorURL: tsCoord.URL}
	_, tsWorker := newPointServer(t, workerCfg, func(cluster.Point, string) cluster.PointResult {
		t.Error("worker simulated a point the coordinator store already answers")
		return fakePointResult(0)
	})
	res, code := executeOnWorker(t, tsWorker.URL, point)
	if code != http.StatusOK || !res.Cached || res.Iterations != 77 {
		t.Fatalf("execute = code=%d res=%+v, want the coordinator-store verdict (77)", code, res)
	}
	// Failed verdicts are rejected by the store: they must re-run, not
	// stick.
	bad, _ := json.Marshal(cluster.PointResult{Err: "boom"})
	req, _ = http.NewRequest(http.MethodPut, tsCoord.URL+"/api/v1/cache/"+key, bytes.NewReader(bad))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("failed-verdict put: %d want 400", resp.StatusCode)
	}
	_ = coord
}

// BenchmarkClusterThroughput measures coordinator batch throughput over
// two in-process workers, in points per second. Seed offsets keep
// every point's cache key distinct.
func BenchmarkClusterThroughput(b *testing.B) {
	seam := func(cluster.Point, string) cluster.PointResult { return fakePointResult(8) }
	newWorker := func() *httptest.Server {
		cfg := Config{}
		cfg.executePoint = seam
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		return ts
	}
	w1, w2 := newWorker(), newWorker()
	cfg := Config{Coordinator: true}
	cfg.executePoint = seam
	coord, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	b.Cleanup(ts.Close)
	coord.members.Register("w1", w1.URL)
	coord.members.Register("w2", w2.URL)

	const pointsPerBatch = 32
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		entries := make([]BatchEntry, pointsPerBatch)
		for j := range entries {
			entries[j] = BatchEntry{Workload: "ME-NAIVE", Runs: 2, Warmup: 2,
				SeedOffset: i*pointsPerBatch + j + 1}
		}
		body, _ := json.Marshal(BatchRequest{Entries: entries})
		resp, err := http.Post(ts.URL+"/api/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var v batchView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for {
			resp, err := http.Get(ts.URL + "/api/v1/batch/" + v.ID)
			if err != nil {
				b.Fatal(err)
			}
			var bv batchView
			if err := json.NewDecoder(resp.Body).Decode(&bv); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if bv.Status == BatchDone {
				if bv.Failed != 0 {
					b.Fatalf("batch %s failed %d points", bv.ID, bv.Failed)
				}
				break
			}
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*pointsPerBatch)/elapsed.Seconds(), "points/s")
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = coord.Drain(ctx)
}
