package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/cache"
	"microsampler/internal/core"
	"microsampler/internal/history"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	now := time.Now().UTC().Truncate(time.Millisecond)
	want := []journalRecord{
		{Event: "submit", Time: now, ID: "job-1", Req: &JobRequest{Source: "x"}},
		{Event: "start", Time: now, ID: "job-1"},
		{Event: "done", Time: now, ID: "job-1", Summary: &core.Summary{Leaky: true, LeakyUnits: []string{"SQ_ADDR"}, Iterations: 8, SimCycles: 99}},
	}
	for _, rec := range want {
		if _, err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(journalRecord{Event: "start", ID: "job-2"}); err == nil {
		t.Error("append after Close must fail")
	}

	// A torn final line — the write the crash interrupted — is skipped.
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"event":"done","id":"job-1","lea`)
	f.Close()

	j2, recs, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Event != want[i].Event || rec.ID != want[i].ID {
			t.Errorf("record %d: %+v want %+v", i, rec, want[i])
		}
	}
	if recs[2].Summary == nil || !recs[2].Leaky || recs[2].SimCycles != 99 || recs[2].LeakyUnits[0] != "SQ_ADDR" {
		t.Errorf("done summary lost: %+v", recs[2])
	}
}

// TestJournalTornTailRepaired: a daemon reopened over a journal whose
// final line lost its newline in a crash — torn mid-record, or whole —
// appends its next record on a line of its own. That record replays
// after another restart, and the audit chain still verifies.
func TestJournalTornTailRepaired(t *testing.T) {
	for name, crash := range map[string]func(log []byte) []byte{
		"torn": func(log []byte) []byte {
			return append(log, `{"event":"done","time":"2026-10-17T01:56:57Z","id":"job-9","lea`...)
		},
		"unterminated": func(log []byte) []byte { return bytes.TrimSuffix(log, []byte("\n")) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")
			s1, ts1 := newJournaledServer(t, dir, Config{Workers: 1}, nil)
			runJobs(t, ts1.URL, 1)
			drainNow(t, s1)
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, crash(log), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, ts2 := newJournaledServer(t, dir, Config{Workers: 1}, nil)
			v, _ := submitJob(t, ts2.URL, JobRequest{Source: "after the crash"})
			waitDone(t, ts2.URL, v.ID)
			drainNow(t, s2)

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			for _, rec := range parseJournal(raw) {
				if rec.ID == v.ID {
					events = append(events, rec.Event)
				}
			}
			if want := []string{"submit", "start", "done"}; !slices.Equal(events, want) {
				t.Errorf("%s replays as %v, want %v", v.ID, events, want)
			}
			sum, err := VerifyAuditLog(dir)
			if err != nil || sum.Terminal != 2 || sum.Pending != 0 {
				t.Errorf("audit after the repaired tail: %+v, %v; want 2 audited terminal records", sum, err)
			}
			s3, ts3 := newJournaledServer(t, dir, Config{Workers: 1}, nil)
			defer drainNow(t, s3)
			if got, _ := getView(t, ts3.URL, v.ID); got.Status != string(StatusDone) {
				t.Errorf("%s recovered as %q, want done", v.ID, got.Status)
			}
		})
	}
}

func TestIDNum(t *testing.T) {
	for id, want := range map[string]int{"job-7": 7, "job-123": 123, "weird": 0, "job--4": 0} {
		if got := idNum(id); got != want {
			t.Errorf("idNum(%q) = %d want %d", id, got, want)
		}
	}
}

// newJournaledServer builds a journaling server over dir whose verify
// step is fn (nil: instant fakeReport).
func newJournaledServer(t *testing.T, dir string, cfg Config, fn func(*Job) (*core.Report, error)) (*Server, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = dir
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
	return s, ts
}

func getView(t *testing.T, base, id string) (jobView, int) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// TestDaemonCrashRecovery models a daemon death mid-run: incarnation A
// is abandoned (never drained) with one job blocked in a worker and two
// more queued; incarnation B over the same journal dir must mark the
// running job interrupted, re-enqueue the queued ones, finish them, and
// continue the job-ID sequence.
func TestDaemonCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	sA, tsA := newJournaledServer(t, dir, Config{Workers: 1},
		func(j *Job) (*core.Report, error) {
			if j.ID == "job-1" {
				<-block // stuck until the test ends, like a crashed process
			}
			return fakeReport(), nil
		})
	t.Cleanup(func() {
		// Unstick the abandoned incarnation and wait it out, so its
		// worker cannot write into the temp dir during removal.
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sA.Drain(ctx)
	})

	if _, code := submitJob(t, tsA.URL, JobRequest{Source: "a"}); code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	// Wait until the worker owns job-1, so it is "running" at the crash.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := getView(t, tsA.URL, "job-1"); v.Status == string(StatusRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job-1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, src := range []string{"b", "c"} {
		if _, code := submitJob(t, tsA.URL, JobRequest{Source: src}); code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", src, code)
		}
	}
	// "Crash": incarnation A is simply abandoned, holding its worker.

	sB, tsB := newJournaledServer(t, dir, Config{Workers: 1}, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Drain(ctx)
	})

	if v, code := getView(t, tsB.URL, "job-1"); code != http.StatusOK ||
		v.Status != string(StatusInterrupted) || !strings.Contains(v.Error, "interrupted") {
		t.Errorf("job-1 after restart: code=%d %+v", code, v)
	}
	for _, id := range []string{"job-2", "job-3"} {
		if v := waitDone(t, tsB.URL, id); v.Status != string(StatusDone) {
			t.Errorf("recovered %s: %+v", id, v)
		}
	}
	// The ID sequence continues past every journaled job.
	v, code := submitJob(t, tsB.URL, JobRequest{Source: "d"})
	if code != http.StatusAccepted || v.ID != "job-4" {
		t.Errorf("post-recovery submit: code=%d id=%s want job-4", code, v.ID)
	}
	waitDone(t, tsB.URL, "job-4")
}

// TestDaemonRecoveryRequeuesInterrupted covers the -recover path: a job
// orphaned mid-run is re-enqueued and completes on the new incarnation.
func TestDaemonRecoveryRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	sA, tsA := newJournaledServer(t, dir, Config{Workers: 1},
		func(*Job) (*core.Report, error) { <-block; return fakeReport(), nil })
	t.Cleanup(func() {
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sA.Drain(ctx)
	})
	if _, code := submitJob(t, tsA.URL, JobRequest{Source: "a"}); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := getView(t, tsA.URL, "job-1"); v.Status == string(StatusRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job-1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sB, tsB := newJournaledServer(t, dir, Config{Workers: 1, RequeueInterrupted: true}, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Drain(ctx)
	})
	if v := waitDone(t, tsB.URL, "job-1"); v.Status != string(StatusDone) {
		t.Errorf("requeued job-1: %+v", v)
	}
}

// TestRecoveredRerunCarriesNoStaleError: a job interrupted by a crash,
// re-run and finished by the next incarnation is plainly done at every
// later restart, without the interruption's error on its view.
func TestRecoveredRerunCarriesNoStaleError(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := jobCacheKey(JobRequest{Source: "x"})
	fileBlob(t, dir, key, map[string]artifact{"report": {"application/json", []byte("{}")}})
	now := time.Now()
	for _, rec := range []journalRecord{
		{Event: "submit", Time: now, ID: "job-1", Req: &JobRequest{Source: "x"}},
		{Event: "start", Time: now, ID: "job-1"},
		{Event: "interrupted", Time: now, ID: "job-1"},
		{Event: "start", Time: now, ID: "job-1"},
		{Event: "done", Time: now, ID: "job-1", Summary: &core.Summary{Leaky: true}, Key: key},
	} {
		if _, err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newJournaledServer(t, dir, Config{Workers: 1}, nil)
	defer drainNow(t, s)
	if v, _ := getView(t, ts.URL, "job-1"); v.Status != string(StatusDone) || v.Error != "" {
		t.Errorf("re-run job-1 recovered as %s with error %q, want done without one", v.Status, v.Error)
	}
}

// TestRecoveryDroppedJobHasNoDuration: a queued job that recovery drops
// because the queue is full never started, so its view carries no
// duration and its progress reports zero elapsed — on the restart that
// drops it and on every later one.
func TestRecoveryDroppedJobHasNoDuration(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if _, err := j.append(journalRecord{Event: "submit", Time: time.Now(), ID: id, Req: &JobRequest{Source: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for restart := 0; restart < 2; restart++ {
		s, ts := newJournaledServer(t, dir, Config{Workers: 1, QueueSize: 1}, nil)
		waitDone(t, ts.URL, "job-1")
		resp, err := http.Get(ts.URL + "/api/v1/jobs/job-2")
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view["status"] != string(StatusFailed) || !strings.Contains(fmt.Sprint(view["error"]), "queue full") {
			t.Fatalf("restart %d: job-2 = %v, want failed: dropped at recovery", restart, view)
		}
		if d, ok := view["durationMillis"]; ok {
			t.Errorf("restart %d: dropped job-2 reports durationMillis %v", restart, d)
		}
		if p, _ := getProgress(t, ts.URL, "job-2"); p.ElapsedMS != 0 {
			t.Errorf("restart %d: dropped job-2 reports elapsedMillis %d", restart, p.ElapsedMS)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Drain(ctx)
		cancel()
	}
}

// TestDaemonRecoveryReloadsArtifacts: a finished job survives a restart
// with its verdict and downloadable artifacts intact.
func TestDaemonRecoveryReloadsArtifacts(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := newJournaledServer(t, dir, Config{Workers: 1}, nil)
	v, _ := submitJob(t, tsA.URL, JobRequest{Source: "x"})
	done := waitDone(t, tsA.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("job: %+v", done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sA.Drain(ctx)

	// The artifacts were filed in the store before the job was marked
	// done, under the job's key.
	arts := storedBlob(t, dir, jobCacheKey(JobRequest{Source: "x"}))
	for _, name := range []string{"report", "trace", "heatmap", "heatmap.html"} {
		if _, ok := arts[name]; !ok {
			t.Errorf("artifact %s not in the stored blob", name)
		}
	}

	sB, tsB := newJournaledServer(t, dir, Config{Workers: 1}, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Drain(ctx)
	})
	got, code := getView(t, tsB.URL, v.ID)
	if code != http.StatusOK || got.Status != string(StatusDone) {
		t.Fatalf("recovered done job: code=%d %+v", code, got)
	}
	if got.Summary == nil || !got.Leaky || got.SimCycles != 1234 {
		t.Errorf("verdict lost in recovery: %+v", got)
	}
	resp, err := http.Get(tsB.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("recovered artifact: %d ct=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestDaemonEvictionNeverTouchesRunningJob is the eviction regression
// test: heavy churn past MaxJobs while one job is mid-write must not
// evict the running job or its artifact directory.
func TestDaemonEvictionNeverTouchesRunningJob(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{})
	_, ts := newJournaledServer(t, dir, Config{Workers: 2, MaxJobs: 1},
		func(j *Job) (*core.Report, error) {
			if j.ID == "job-1" {
				close(started)
				<-release // job-1 is "still being written" while churn happens
			}
			return fakeReport(), nil
		})

	if _, code := submitJob(t, ts.URL, JobRequest{Source: "slow"}); code != http.StatusAccepted {
		t.Fatal("submit job-1")
	}
	<-started
	// Churn: finished jobs far beyond MaxJobs while job-1 runs.
	for i := 0; i < 4; i++ {
		v, code := submitJob(t, ts.URL, JobRequest{Source: "fast"})
		if code != http.StatusAccepted {
			t.Fatalf("churn submit %d: %d", i, code)
		}
		waitDone(t, ts.URL, v.ID)
	}
	if _, code := getView(t, ts.URL, "job-1"); code != http.StatusOK {
		t.Fatal("running job-1 was evicted under churn")
	}
	close(release)
	done := waitDone(t, ts.URL, "job-1")
	if done.Status != string(StatusDone) {
		t.Fatalf("job-1: %+v", done)
	}
	// Its artifacts are complete in the store despite the eviction
	// pressure.
	if arts := storedBlob(t, dir, jobCacheKey(JobRequest{Source: "slow"})); len(arts) == 0 {
		t.Error("job-1's stored blob holds no artifacts")
	}
}

// fileBlob files an artifact set in the verdict store of the journal
// under dir, as a worker-run job does before journaling its done record.
func fileBlob(t *testing.T, dir, key string, arts map[string]artifact) {
	t.Helper()
	disk, err := cache.NewDisk(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&cachedJob{arts: arts}).encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(key, data); err != nil {
		t.Fatal(err)
	}
}

// storedBlob reads back the artifact set filed under key in the verdict
// store of the journal under dir.
func storedBlob(t *testing.T, dir, key string) map[string]artifact {
	t.Helper()
	disk, err := cache.NewDisk(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := disk.Get(key)
	if err != nil || !ok {
		t.Fatalf("no blob under %s: %v", shortKey(key), err)
	}
	cj, err := decodeCachedJob(data)
	if err != nil {
		t.Fatal(err)
	}
	return cj.arts
}

// fileState is what treeState records of one file.
type fileState struct {
	size int64
	mod  time.Time
}

// treeState records every file under dir by its path relative to dir.
func treeState(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	files := map[string]fileState{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = fileState{info.Size(), info.ModTime()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writtenOutsideLog lists the files created or modified between two
// tree states, except the journal.
func writtenOutsideLog(before, after map[string]fileState) []string {
	var out []string
	for path, st := range after {
		if path == "journal.jsonl" {
			continue
		}
		if prev, ok := before[path]; !ok || prev != st {
			out = append(out, path)
		}
	}
	slices.Sort(out)
	return out
}

// TestHitAndFollowerWriteNoArtifacts: on a journaled daemon with
// caching, a follower and a cache hit write no file besides the
// journal, and a hit appends exactly its submit and done records: two
// fsynced lines. The leader files the one blob all three jobs' records
// name.
func TestHitAndFollowerWriteNoArtifacts(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var calls atomic.Int64
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, CacheEntries: 8}, gatedOnSeed(gate, &calls))
	defer drainNow(t, s)
	req := JobRequest{Source: "nop", SeedOffset: 1}
	key := jobCacheKey(req)

	lead, _ := submitJob(t, ts.URL, req)
	waitStatus(t, ts.URL, lead.ID, StatusRunning, 5*time.Second)
	follower, _ := submitJob(t, ts.URL, req)
	before := treeState(t, dir)
	close(gate)
	waitDone(t, ts.URL, lead.ID)
	if v := waitDone(t, ts.URL, follower.ID); v.Status != string(StatusDone) || !v.Cached {
		t.Fatalf("follower: %+v", v)
	}
	blob := filepath.Join("cache", key[:2], key+".bin")
	if got := writtenOutsideLog(before, treeState(t, dir)); !slices.Equal(got, []string{blob}) {
		t.Errorf("leader and follower wrote %v, want only the leader's blob %s", got, blob)
	}

	before = treeState(t, dir)
	logBefore, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := submitJob(t, ts.URL, req)
	if hit.Status != string(StatusDone) || !hit.Cached {
		t.Fatalf("resubmission not answered from cache: %+v", hit)
	}
	if got := writtenOutsideLog(before, treeState(t, dir)); len(got) > 0 {
		t.Errorf("cache hit wrote %v", got)
	}
	logAfter, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil || !bytes.HasPrefix(logAfter, logBefore) {
		t.Fatalf("journal rewritten by the hit (%v)", err)
	}
	var events []string
	for _, rec := range parseJournal(logAfter[len(logBefore):]) {
		events = append(events, rec.Event+" "+rec.ID)
	}
	if want := []string{"submit " + hit.ID, "done " + hit.ID}; bytes.Count(logAfter[len(logBefore):], []byte("\n")) != 2 || !slices.Equal(events, want) {
		t.Errorf("cache hit appended %q, want exactly %q", logAfter[len(logBefore):], want)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("verification ran %d times, want 1", n)
	}
}

// TestRecoveryReadsRecordedKey: recovery serves the blob a done record
// names, even when the job's request now hashes to another key — a
// key-schema change cannot orphan a finished job.
func TestRecoveryReadsRecordedKey(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Source: "x"}
	key := jobCacheKey(JobRequest{Source: "recorded under another key"})
	if key == jobCacheKey(req) {
		t.Fatal("test keys collide")
	}
	report := []byte(`{"from":"the recorded blob"}`)
	fileBlob(t, dir, key, map[string]artifact{"report": {"application/json", report}})
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Event: "submit", Time: now, ID: "job-1", Req: &req},
		{Event: "done", Time: now, ID: "job-1", Summary: &core.Summary{Leaky: true}, Key: key},
	} {
		if _, err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, CacheEntries: 8}, nil)
	defer drainNow(t, s)
	if v, _ := getView(t, ts.URL, "job-1"); v.Status != string(StatusDone) {
		t.Fatalf("job-1 recovered as %s (%s), want done", v.Status, v.Error)
	}
	if got := fetchArtifact(t, ts.URL, "job-1", "report"); !bytes.Equal(got, report) {
		t.Errorf("recovered report = %s, want the recorded blob's %s", got, report)
	}
}

func TestDaemonQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	_, ts := newFakeServer(t, Config{Workers: 1, QueueSize: 1},
		func(*Job) (*core.Report, error) { <-release; return fakeReport(), nil })

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
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity: %d want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After %q: want a positive integer of seconds", ra)
	}
}

// TestDaemonWorkerPanicContained: a panicking verification fails its own
// job and the daemon keeps serving.
func TestDaemonWorkerPanicContained(t *testing.T) {
	_, ts := newFakeServer(t, Config{Workers: 1}, func(j *Job) (*core.Report, error) {
		if j.ID == "job-1" {
			panic("probe exploded")
		}
		return fakeReport(), nil
	})
	v, _ := submitJob(t, ts.URL, JobRequest{Source: "boom"})
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusFailed) || !strings.Contains(done.Error, "probe exploded") {
		t.Fatalf("panicked job: %+v", done)
	}
	v2, _ := submitJob(t, ts.URL, JobRequest{Source: "fine"})
	if after := waitDone(t, ts.URL, v2.ID); after.Status != string(StatusDone) {
		t.Errorf("daemon wedged after panic: %+v", after)
	}
}

// TestParentJournalRecovers replays a journal written before the
// records embedded core.Summary — a leaky and a clean report job, a
// matrix job, a failed job, a batch with a failed point, and sealed
// audit roots. It must still verify, and recovery must serve the same
// job and batch views that daemon served after its own restart.
func TestParentJournalRecovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-journal")); err != nil {
		t.Fatal(err)
	}
	sum, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatalf("parent journal no longer verifies: %v", err)
	}
	if sum.Batches != 4 || sum.Terminal != 7 || sum.Pending != 0 {
		t.Errorf("audit summary = %+v, want 4 roots over 7 terminal records", sum)
	}

	data, err := os.ReadFile("testdata/parent-journal-views.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	s, ts := newJournaledServer(t, dir, Config{Coordinator: true}, nil)
	defer drainNow(t, s)
	for path, raw := range want {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got, exp any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := json.Unmarshal(raw, &exp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s recovered differently:\n got %s\nwant %s", path, body, raw)
		}
	}
}

// FuzzJournalReplay feeds raw journal bytes through every reader of
// the journal — recovery's parseJournal, the run-history view, the
// auditor's replay and VerifyAuditLog. None may panic, every record
// recovery accepts must survive a marshal/decode round trip unchanged,
// and every history record must carry a label and a report or matrix
// kind. The seeds are
// verbatim lines of a journal written before the records embedded
// core.Summary, plus a torn line.
func FuzzJournalReplay(f *testing.F) {
	for _, line := range []string{
		`{"event":"done","time":"2026-10-17T01:56:57.5623449Z","id":"job-1","leaky":true,"leakyUnits":["SQ-ADDR"],"iterations":8,"simCycles":1234}`,
		`{"event":"done","time":"2026-10-17T01:56:57.567505661Z","id":"job-2","iterations":8,"simCycles":1234}`,
		`{"event":"done","time":"2026-10-17T01:56:57.573097316Z","id":"job-3","leaky":true,"leakyUnits":["TAGE-PRED"],"iterations":16,"simCycles":220,"cells":2,"leakyCells":["predictor=tage"]}`,
		`{"event":"failed","time":"2026-10-17T01:56:57.578154385Z","id":"job-4","err":"injected verification failure"}`,
		`{"event":"batch-submit","time":"2026-10-17T01:56:57.583982125Z","id":"batch-1","batchReq":{"label":"base","points":[{"workload":"ME-NAIVE","config":"small","runs":2},{"workload":"ME-NAIVE","config":"small","runs":2,"seedOffset":7}]}}`,
		`{"event":"batch-point","time":"2026-10-17T01:56:57.584337732Z","id":"batch-1","pointIdx":1,"pointRes":{"key":"9e052b08682b61e8e095073e6c6046d3d9e2fdd7736e58b7d58ff6cb2ef73e74","leaky":false,"error":"injected point failure","degraded":true}}`,
		`{"event":"batch-point","time":"2026-10-17T01:56:57.584506439Z","id":"batch-1","pointRes":{"key":"ac3b458bbc1703b0e1c7942c322e4f1dd9e91aab7d2b5510316df1b01ed9f6c3","leaky":true,"leakyUnits":["TAGE-PRED"],"iterations":8,"simCycles":1234,"digest":"eyJ3b3JrbG9hZCI6ImZha2UifQ==","degraded":true}}`,
		`{"event":"batch-done","time":"2026-10-17T01:56:57.584687418Z","id":"batch-1","done":1,"failedPoints":1,"degradedPoints":2}`,
		`{"event":"audit","time":"0001-01-01T00:00:00Z","id":"","root":"769e722f5fc89a278ce14a3ac7c8138848120093305fd3a00c932a002b7710d5","prev":"0000000000000000000000000000000000000000000000000000000000000000","first":1,"count":2}`,
		`{"event":"done","id":"job-1","lea`,
	} {
		f.Add([]byte(line))
	}
	if whole, err := os.ReadFile("testdata/parent-journal/journal.jsonl"); err == nil {
		f.Add(whole)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, rec := range parseJournal(raw) {
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record does not marshal: %v", err)
			}
			var back journalRecord
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("re-decode %s: %v", data, err)
			}
			again, err := json.Marshal(back)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("round trip moved the record:\n%s\n%s (%v)", data, again, err)
			}
			var back2 journalRecord
			if err := json.Unmarshal(again, &back2); err != nil || !reflect.DeepEqual(back, back2) {
				t.Fatalf("round trip changed the record: %+v vs %+v (%v)", back, back2, err)
			}
		}
		for _, e := range historyView(raw) {
			if e.Label == "" || (e.Kind != history.KindReport && e.Kind != history.KindMatrix) {
				t.Fatalf("history lists %+v", e.Record)
			}
		}
		newAuditor(2).replay(raw)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = VerifyAuditLog(dir)
	})
}
