package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/core"
)

// validate and jobCacheKey spell admission's resolution for the key
// tests: a request is valid when it resolves, and its key is the one
// admission files the job's artifact set under.
func (r JobRequest) validate() error {
	_, _, _, err := r.resolve()
	return err
}

func jobCacheKey(req JobRequest) string {
	j := &Job{Req: req}
	var err error
	if j.w, j.opts, j.grid, err = req.resolve(); err != nil {
		return ""
	}
	return j.cacheKey()
}

// waitStatus polls a job until it reaches status, failing after wait.
func waitStatus(t *testing.T, base, id string, status JobStatus, wait time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		v, code := getView(t, base, id)
		if code == http.StatusOK && v.Status == string(status) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %q (HTTP %d) after %v, want %s", id, v.Status, code, wait, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedOnSeed verifies requests with a positive seed offset only once
// gate closes and the rest at once, counting every verification.
func gatedOnSeed(gate chan struct{}, calls *atomic.Int64) func(*Job) (*core.Report, error) {
	return func(j *Job) (*core.Report, error) {
		calls.Add(1)
		if j.Req.SeedOffset > 0 {
			<-gate
		}
		return fakeReport(), nil
	}
}

// TestAdmissionAnswersHitWithFullQueue: with the one queue slot taken
// and the one worker busy, a resubmission of a finished request is
// still answered — 202, already done and cached, with the original
// bytes — while a fresh request is refused.
func TestAdmissionAnswersHitWithFullQueue(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	_, ts := newFakeServer(t, Config{Workers: 1, QueueSize: 1, CacheEntries: 8}, gatedOnSeed(gate, &calls))
	t.Cleanup(func() { close(gate) })

	req := JobRequest{Source: "nop"}
	first, _ := submitJob(t, ts.URL, req)
	waitDone(t, ts.URL, first.ID)
	running, _ := submitJob(t, ts.URL, JobRequest{Source: "nop", SeedOffset: 1})
	waitStatus(t, ts.URL, running.ID, StatusRunning, 10*time.Second)
	if _, code := submitJob(t, ts.URL, JobRequest{Source: "nop", SeedOffset: 2}); code != http.StatusAccepted {
		t.Fatalf("submit to the free slot: %d", code)
	}
	if _, code := submitJob(t, ts.URL, JobRequest{Source: "nop", SeedOffset: 3}); code != http.StatusServiceUnavailable {
		t.Fatalf("fresh submit to a full queue: %d, want 503", code)
	}

	hit, code := submitJob(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission to a full queue: %d, want 202", code)
	}
	if hit.Status != string(StatusDone) || !hit.Cached || hit.Started == "" || hit.Finished == "" {
		t.Errorf("resubmission answered %+v, want done and cached with started and finished", hit)
	}
	if !bytes.Equal(fetchArtifact(t, ts.URL, first.ID, "report"), fetchArtifact(t, ts.URL, hit.ID, "report")) {
		t.Error("hit's report differs from the original's")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("verification ran %d times, want 2 (the original and the running job)", got)
	}
}

// TestTwinTakesNoWorker: a twin of a running job follows it without a
// worker, so with two workers a distinct job finishes while the leader
// is still running; the twin then finishes with the leader's bytes.
func TestTwinTakesNoWorker(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	_, ts := newFakeServer(t, Config{Workers: 2, CacheEntries: 8}, gatedOnSeed(gate, &calls))
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)

	twin := JobRequest{Source: "nop", SeedOffset: 1}
	a, _ := submitJob(t, ts.URL, twin)
	waitStatus(t, ts.URL, a.ID, StatusRunning, 10*time.Second)
	b, _ := submitJob(t, ts.URL, twin)
	c, _ := submitJob(t, ts.URL, JobRequest{Source: "nop"})
	waitStatus(t, ts.URL, c.ID, StatusDone, 5*time.Second)
	if v, _ := getView(t, ts.URL, a.ID); v.Status != string(StatusRunning) {
		t.Fatalf("leader is %s, want still running", v.Status)
	}
	if v, _ := getView(t, ts.URL, b.ID); v.Status != string(StatusQueued) {
		t.Fatalf("twin is %s, want queued behind its leader", v.Status)
	}

	release()
	av, bv := waitDone(t, ts.URL, a.ID), waitDone(t, ts.URL, b.ID)
	if av.Cached || !bv.Cached {
		t.Errorf("cached: leader %v, twin %v; want false, true", av.Cached, bv.Cached)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("verification ran %d times, want 2", got)
	}
	if !bytes.Equal(fetchArtifact(t, ts.URL, a.ID, "report"), fetchArtifact(t, ts.URL, b.ID, "report")) {
		t.Error("twin's report differs from the leader's")
	}
}

// TestRecoveryFollowsQueuedTwin: two identical jobs queued at a crash
// are re-admitted as a leader and its follower, so a one-slot queue
// keeps both and one verification answers both with the same bytes.
func TestRecoveryFollowsQueuedTwin(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if _, err := j.append(journalRecord{Event: "submit", Time: time.Now(), ID: id, Req: &JobRequest{Source: "nop"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, QueueSize: 1, CacheEntries: 8},
		func(*Job) (*core.Report, error) {
			calls.Add(1)
			return fakeReport(), nil
		})
	defer drainNow(t, s)
	v1, v2 := waitDone(t, ts.URL, "job-1"), waitDone(t, ts.URL, "job-2")
	if v1.Status != string(StatusDone) || v2.Status != string(StatusDone) {
		t.Fatalf("recovered twins: %s (%s), %s (%s); want both done", v1.Status, v1.Error, v2.Status, v2.Error)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("verification ran %d times for two recovered twins, want 1", got)
	}
	if !bytes.Equal(fetchArtifact(t, ts.URL, "job-1", "report"), fetchArtifact(t, ts.URL, "job-2", "report")) {
		t.Error("recovered twins' reports differ")
	}
}

// TestConcurrentTwinsVerifyOnce: identical submissions racing each
// other are admitted as one leader plus followers and cache hits, so
// one verification answers all of them with the same bytes.
func TestConcurrentTwinsVerifyOnce(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	_, ts := newFakeServer(t, Config{Workers: 2, CacheEntries: 8}, func(*Job) (*core.Report, error) {
		calls.Add(1)
		time.Sleep(10 * time.Millisecond)
		return fakeReport(), nil
	})
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(JobRequest{Source: "nop"})
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v jobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit: HTTP %d, %v", resp.StatusCode, err)
			}
			ids[i] = v.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var want []byte
	cached := 0
	for _, id := range ids {
		if v := waitDone(t, ts.URL, id); v.Cached {
			cached++
		}
		got := fetchArtifact(t, ts.URL, id, "report")
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s's report differs", id)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("verification ran %d times for %d identical submissions, want 1", got, n)
	}
	if cached != n-1 {
		t.Errorf("%d jobs cached, want %d", cached, n-1)
	}
}

// TestAdmissionHitViewSurvivesRestart: a job answered at admission
// shows, after a restart, the view its 202 carried.
func TestAdmissionHitViewSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 8, CacheDir: dir + "/cache"}
	sA, tsA := newJournaledServer(t, dir, cfg, nil)
	req := JobRequest{Source: "nop"}
	first, _ := submitJob(t, tsA.URL, req)
	waitDone(t, tsA.URL, first.ID)
	body, _ := json.Marshal(req)
	resp, err := http.Post(tsA.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d, %v", resp.StatusCode, err)
	}
	var hit jobView
	if err := json.Unmarshal(answer, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Status != string(StatusDone) || !hit.Cached || hit.Started == "" || hit.Finished == "" {
		t.Fatalf("resubmission answered %s", answer)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newJournaledServer(t, dir, cfg, nil)
	defer drainNow(t, sB)
	after, code := getView(t, tsB.URL, hit.ID)
	if code != http.StatusOK || !reflect.DeepEqual(after, hit) {
		t.Errorf("after restart (HTTP %d):\n got %+v\nwant %+v", code, after, hit)
	}
}
