package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
)

// newTestHTTP serves s over a test listener torn down with the test.
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// fetchArtifact downloads one artifact's raw bytes.
func fetchArtifact(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s/%s: status %d", id, name, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scrapeMetric reads one plain (non-histogram) series from /metrics.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestCacheHitServesJob pins the core caching contract: a repeat of an
// identical submission runs no verification, is marked cached, serves
// byte-identical artifacts, and bumps the hit counter; a submission
// differing in a detection-relevant field misses.
func TestCacheHitServesJob(t *testing.T) {
	var calls atomic.Int64
	_, ts := newFakeServer(t, Config{CacheEntries: 8}, func(*Job) (*core.Report, error) {
		calls.Add(1)
		return fakeReport(), nil
	})

	req := JobRequest{Source: "nop"}
	first, code := submitJob(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	firstDone := waitDone(t, ts.URL, first.ID)
	if firstDone.Cached {
		t.Error("first run of a tuple marked cached")
	}
	firstReport := fetchArtifact(t, ts.URL, first.ID, "report")

	second, _ := submitJob(t, ts.URL, req)
	secondDone := waitDone(t, ts.URL, second.ID)
	if !secondDone.Cached {
		t.Error("repeat submission not marked cached")
	}
	if secondDone.Summary == nil || secondDone.Leaky != firstDone.Leaky {
		t.Error("cached verdict differs from original")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("verification ran %d times, want 1", got)
	}
	// Golden comparison: the cached artifact is the identical bytes.
	if !bytes.Equal(firstReport, fetchArtifact(t, ts.URL, second.ID, "report")) {
		t.Error("cached report artifact not byte-identical")
	}
	if hits := scrapeMetric(t, ts.URL, "msd_cache_hits_total"); hits != 1 {
		t.Errorf("msd_cache_hits_total = %v, want 1", hits)
	}

	// A detection-relevant change misses and verifies afresh.
	third, _ := submitJob(t, ts.URL, JobRequest{Source: "nop", SeedOffset: 9})
	if v := waitDone(t, ts.URL, third.ID); v.Cached {
		t.Error("different seed served from cache")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("verification ran %d times, want 2", got)
	}
	if misses := scrapeMetric(t, ts.URL, "msd_cache_misses_total"); misses != 2 {
		t.Errorf("msd_cache_misses_total = %v, want 2", misses)
	}
}

// TestJobCacheKeyCanonicalJSON pins canonicalization at the wire
// boundary: reordered JSON fields and explicitly spelled defaults
// decode to the same key, while every detection-relevant mutation
// changes it.
func TestJobCacheKeyCanonicalJSON(t *testing.T) {
	keyOf := func(raw string) string {
		t.Helper()
		var req JobRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if err := req.validate(); err != nil {
			t.Fatalf("validate %s: %v", raw, err)
		}
		k := jobCacheKey(req)
		if k == "" {
			t.Fatalf("no key for %s", raw)
		}
		return k
	}
	base := keyOf(`{"source":"nop","runs":4}`)
	for name, raw := range map[string]string{
		"reordered fields":  `{"runs":4,"source":"nop"}`,
		"defaulted runs":    `{"source":"nop"}`,
		"explicit defaults": `{"source":"nop","runs":4,"seedOffset":0,"config":"mega","fastBypass":false}`,
		"strategy fields":   `{"source":"nop","runs":4,"parallel":3,"cellParallel":0}`,
	} {
		if keyOf(raw) != base {
			t.Errorf("%s produced a different key", name)
		}
	}
	for name, raw := range map[string]string{
		"program": `{"source":"add x0, x0, x0","runs":4}`,
		"config":  `{"source":"nop","runs":4,"config":"small"}`,
		"flag":    `{"source":"nop","runs":4,"fastBypass":true}`,
		"seed":    `{"source":"nop","runs":4,"seedOffset":1}`,
		"runs":    `{"source":"nop","runs":5}`,
		"heatmap": `{"source":"nop","runs":4,"heatmapWindows":32}`,
		"matrix":  `{"source":"nop","runs":4,"matrix":"default"}`,
	} {
		if keyOf(raw) == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestCacheKeyGolden pins the exact job and point keys of a fixed set
// of requests. Disk caches outlive daemon binaries, so a change to how
// requests decode or default must not move a key: a moved key orphans
// every cached verdict under it.
func TestCacheKeyGolden(t *testing.T) {
	for _, c := range []struct{ raw, want string }{
		{`{"workload":"ME-NAIVE"}`,
			"62588f6f1320bea5234e755803e52bb8c78ccb21d2039840bdc909272b47ea4a"},
		{`{"source":"nop","config":"small","fastBypass":true,"runs":2,"warmup":2}`,
			"c41c4fdb567a60181c79267567bb981c514d3c4843d3c07c1c0f23c873c9a173"},
		{`{"workload":"ME-NAIVE","warmup":-5,"seedOffset":3}`,
			"330dc5ed71f85638d476d1f0f70cd7f97c9f19f1bd353d6b97e4132c2d9e6681"},
		// Matrix keys ignore config: the grid defines each cell's.
		{`{"workload":"TAGE-HIST","matrix":"predictor=gshare,tage","config":"small","runs":2}`,
			"27c90eb4a6e371bf889327ff63598839604ae3289dee8889169590095411f0e5"},
		{`{"workload":"TAGE-HIST","matrix":"predictor=gshare,tage","runs":2}`,
			"27c90eb4a6e371bf889327ff63598839604ae3289dee8889169590095411f0e5"},
		{`{"workload":"TAGE-HIST","matrix":"default","warmup":-1}`,
			"0c972064aa9536aeda3531aff4e1df83d161fc2e257dd088d51089bdf4b527dd"},
		{`{"source":"addi a0, a0, 1","runs":3,"measureStages":true,"heatmapWindows":16,"label":"x","parallel":2}`,
			"e867bc998f56e95f033c66946e417375cf8694c42bd47c207967d612b40d4c8c"},
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(c.raw), &req); err != nil {
			t.Fatalf("decode %s: %v", c.raw, err)
		}
		if err := req.validate(); err != nil {
			t.Fatalf("validate %s: %v", c.raw, err)
		}
		if got := jobCacheKey(req); got != c.want {
			t.Errorf("jobCacheKey(%s) = %s, want %s", c.raw, got, c.want)
		}
	}
	for _, c := range []struct{ raw, want string }{
		{`{"workload":"ME-NAIVE"}`,
			"ce1690502ce88b1341327c44194547ebf1938453bc405ccc349a829f3f72b4d9"},
		// A batch cell of the default grid.
		{`{"workload":"TAGE-HIST","cell":"base=mega,prefetch=none,predictor=tage","runs":2}`,
			"85d58c8cc0e6a82624581d51c90a871073905bc95ddbf569278481cfc18c05c5"},
		{`{"source":"nop","config":"small","fastBypass":true,"runs":2,"warmup":2}`,
			"a28b595531a3deec0d5d2004c9b22d9b9d41e4850b51ecf76a018e52e5a54bcb"},
		{`{"source":"nop","config":"SmallBoom","warmup":-7,"seedOffset":4,"label":"y"}`,
			"88e6c1b879a92912afccdd280ed0099d1c71d54c15be0ab428f8996fae6600ad"},
	} {
		var p cluster.Point
		if err := json.Unmarshal([]byte(c.raw), &p); err != nil {
			t.Fatalf("decode %s: %v", c.raw, err)
		}
		if got, err := p.Key(); err != nil || got != c.want {
			t.Errorf("Point.Key(%s) = %s, %v, want %s", c.raw, got, err, c.want)
		}
	}
}

// FuzzCacheKey feeds raw request bytes through the one decoder the
// daemon uses and checks the canonicalization invariants: decoding
// never panics, an accepted request resolves, its key is deterministic
// and survives a JSON round trip, it moves whenever the seed moves,
// and a report job keys its verification exactly like the equivalent
// batch point.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte(`{"source":"nop","config":"mega","runs":4,"warmup":2}`))
	f.Add([]byte(`{"source":"mul t0, s2, s2","config":"small","runs":1,"warmup":-1,"seedOffset":7,"measureStages":true,"heatmapWindows":16,"fastBypass":true}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"TAGE-HIST","matrix":"default","config":"small","cellParallel":2}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req JobRequest
		if json.Unmarshal(raw, &req) != nil || req.validate() != nil {
			return
		}
		if _, _, _, err := req.resolve(); err != nil {
			t.Fatalf("accepted request does not resolve: %v", err)
		}
		key := jobCacheKey(req)
		if key == "" {
			t.Fatalf("accepted request has no key: %s", raw)
		}
		if again := jobCacheKey(req); again != key {
			t.Fatalf("key not deterministic: %s vs %s", key, again)
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back JobRequest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if k := jobCacheKey(back); k != key {
			t.Fatalf("JSON round trip changed the key: %s vs %s", key, k)
		}
		mutated := req
		mutated.SeedOffset++
		if jobCacheKey(mutated) == key {
			t.Fatal("seed mutation did not change the key")
		}
		if req.Matrix != "" {
			return
		}
		jobKey, err := req.point().Key()
		if err != nil {
			t.Fatalf("accepted request has no point key: %v", err)
		}
		batch := BatchRequest{Entries: []BatchEntry{{
			Workload: req.Workload, Source: req.Source,
			Config: req.Config, FastBypass: req.FastBypass,
			Runs: req.Runs, Warmup: req.Warmup, SeedOffset: req.SeedOffset,
			MeasureStages: req.MeasureStages,
		}}}
		b, err := newBatch(batch)
		if err == nil {
			err = b.keyPoints()
		}
		if err != nil {
			t.Fatalf("equivalent batch entry rejected: %v", err)
		}
		if b.Keys[0] != jobKey {
			t.Fatalf("job and batch point keys differ: %s vs %s", jobKey, b.Keys[0])
		}
	})
}

// TestSingleflightDedupesInFlightJobs: an identical job submitted while
// another runs follows it and shares its one verification; the
// follower is marked cached.
func TestSingleflightDedupesInFlightJobs(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	_, ts := newFakeServer(t, Config{Workers: 2, CacheEntries: 8}, func(*Job) (*core.Report, error) {
		calls.Add(1)
		<-gate
		return fakeReport(), nil
	})

	req := JobRequest{Source: "nop"}
	a, _ := submitJob(t, ts.URL, req)
	b, _ := submitJob(t, ts.URL, req)
	// The leader runs on a worker; the follower waits queued without
	// one, however long the leader takes.
	for _, w := range []struct {
		id     string
		status JobStatus
	}{{a.ID, StatusRunning}, {b.ID, StatusQueued}} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, code := getView(t, ts.URL, w.id)
			if code == http.StatusOK && v.Status == string(w.status) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never %s", w.id, w.status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(gate)

	av, bv := waitDone(t, ts.URL, a.ID), waitDone(t, ts.URL, b.ID)
	if got := calls.Load(); got != 1 {
		t.Fatalf("verification ran %d times for identical in-flight jobs, want 1", got)
	}
	if av.Cached == bv.Cached {
		t.Errorf("want exactly one deduplicated job, got cached=%v/%v", av.Cached, bv.Cached)
	}
	if deduped := scrapeMetric(t, ts.URL, "msd_jobs_deduped_total"); deduped != 1 {
		t.Errorf("msd_jobs_deduped_total = %v, want 1", deduped)
	}
	// Both carry the full artifact set.
	if !bytes.Equal(fetchArtifact(t, ts.URL, a.ID, "report"), fetchArtifact(t, ts.URL, b.ID, "report")) {
		t.Error("deduplicated job's report differs from the leader's")
	}
}

// TestParentCacheBlobDecodes: a matrix job's cache blob in the layout
// written before the blob embedded core.Summary decodes to the same
// verdict, with MaxV 0 (that layout never stored it).
func TestParentCacheBlobDecodes(t *testing.T) {
	blob := `{"leaky":true,"leakyUnits":["TAGE-PRED"],"iterations":16,"simCycles":220,` +
		`"cells":2,"leakyCells":["predictor=tage"],` +
		`"artifacts":{"matrix":{"contentType":"application/json","data":"e30="}}}`
	cj, err := decodeCachedJob([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	want := core.Summary{Leaky: true, LeakyUnits: []string{"TAGE-PRED"}, Cells: 2,
		LeakyCells: []string{"predictor=tage"}, Iterations: 16, SimCycles: 220}
	if !reflect.DeepEqual(cj.sum, want) {
		t.Errorf("summary = %+v, want %+v", cj.sum, want)
	}
	if art := cj.arts["matrix"]; string(art.data) != "{}" || art.contentType != "application/json" {
		t.Errorf("artifact = %+v", art)
	}
}

// TestCacheDiskLayerSurvivesRestart: with CacheDir set, a verdict
// computed before a restart is served from cache after it.
func TestCacheDiskLayerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	count := func(*Job) (*core.Report, error) {
		calls.Add(1)
		return fakeReport(), nil
	}

	cfgA := Config{CacheEntries: 8, CacheDir: dir, verify: count}
	sA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	tsA := newTestHTTP(t, sA)
	first, _ := submitJob(t, tsA, JobRequest{Source: "nop"})
	firstDone := waitDone(t, tsA, first.ID)
	firstReport := fetchArtifact(t, tsA, first.ID, "report")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	sB, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	tsB := newTestHTTP(t, sB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sB.Drain(ctx)
	})
	second, _ := submitJob(t, tsB, JobRequest{Source: "nop"})
	secondDone := waitDone(t, tsB, second.ID)
	if !secondDone.Cached {
		t.Error("verdict not served from the disk cache after restart")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("verification ran %d times across restart, want 1", got)
	}
	if secondDone.Summary == nil || secondDone.Leaky != firstDone.Leaky {
		t.Error("disk-cached verdict differs")
	}
	if !bytes.Equal(firstReport, fetchArtifact(t, tsB, second.ID, "report")) {
		t.Error("disk-cached report artifact not byte-identical")
	}
}

// TestQuiescedServerConvergesToRetentionBound pins the completion-time
// eviction fix: with no further submissions, finishing jobs alone must
// shrink the job table to MaxJobs (previously eviction only ran on
// submit, so a quiesced daemon held excess finished jobs forever).
func TestQuiescedServerConvergesToRetentionBound(t *testing.T) {
	const maxJobs, total = 2, 5
	_, ts := newFakeServer(t, Config{Workers: 1, MaxJobs: maxJobs}, nil)
	var last string
	for i := 0; i < total; i++ {
		v, code := submitJob(t, ts.URL, JobRequest{Source: fmt.Sprintf("nop %d", i)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		last = v.ID
	}
	waitDone(t, ts.URL, last)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []jobView `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) <= maxJobs {
			// The most recent job must be among the survivors.
			found := false
			for _, v := range list.Jobs {
				if v.ID == last {
					found = true
				}
			}
			if !found {
				t.Fatalf("latest job %s evicted, survivors: %+v", last, list.Jobs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job table stuck at %d jobs, want <= %d with no submissions", len(list.Jobs), maxJobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueDepthGaugeAtScrape pins the gauge fix: msd_queue_depth is
// computed under the server lock at scrape time, so it reflects the
// actual queue instead of whichever racy Set landed last.
func TestQueueDepthGaugeAtScrape(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newFakeServer(t, Config{Workers: 1, QueueSize: 8}, func(*Job) (*core.Report, error) {
		<-gate
		return fakeReport(), nil
	})
	var ids []string
	for i := 0; i < 3; i++ {
		v, code := submitJob(t, ts.URL, JobRequest{Source: "nop"})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	// One job is (or will be) running; the queue drains to exactly two.
	deadline := time.Now().Add(10 * time.Second)
	for scrapeMetric(t, ts.URL, "msd_queue_depth") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("msd_queue_depth = %v, want 2 (1 running, 2 queued)",
				scrapeMetric(t, ts.URL, "msd_queue_depth"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	for _, id := range ids {
		waitDone(t, ts.URL, id)
	}
	if depth := scrapeMetric(t, ts.URL, "msd_queue_depth"); depth != 0 {
		t.Errorf("msd_queue_depth = %v after quiesce, want 0", depth)
	}
}
