package msd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	if secondDone.Leaky == nil || *secondDone.Leaky != *firstDone.Leaky {
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
		k := jobCacheKey(req, 0)
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
	// The daemon's cycle bound is part of the key too.
	var req JobRequest
	_ = json.Unmarshal([]byte(`{"source":"nop","runs":4}`), &req)
	if jobCacheKey(req, 5000) == base {
		t.Error("maxCycles did not change the key")
	}
}

// TestCacheKeyGolden pins the exact job and point keys of a fixed set
// of requests. Disk caches outlive daemon binaries, so a change to how
// requests decode or default must not move a key: a moved key orphans
// every cached verdict under it.
func TestCacheKeyGolden(t *testing.T) {
	for _, c := range []struct {
		raw       string
		maxCycles int64
		want      string
	}{
		{`{"workload":"ME-NAIVE"}`, 0,
			"2a224f91dc6a6b38d8de8ad478f70d1a047ecfe510972829cc78fd92d948fe9a"},
		{`{"source":"nop","config":"small","fastBypass":true,"runs":2,"warmup":2}`, 0,
			"84f396c13e636ddec8a39ee527df76fc3cd8a5cffd62d74e470cb18e67a025b2"},
		{`{"workload":"ME-NAIVE","warmup":-5,"seedOffset":3}`, 0,
			"a5b4d361a0d6c0f591b92ee17b3c4c4b406172d486fc53eeb37533ed390cc223"},
		// Matrix keys ignore config: the grid defines each cell's.
		{`{"workload":"TAGE-HIST","matrix":"predictor=gshare,tage","config":"small","runs":2}`, 0,
			"45695583571e5aa547b4edd8b0cdd8691ad3090141f640d4dbd20642007ef10c"},
		{`{"workload":"TAGE-HIST","matrix":"predictor=gshare,tage","runs":2}`, 0,
			"45695583571e5aa547b4edd8b0cdd8691ad3090141f640d4dbd20642007ef10c"},
		{`{"workload":"TAGE-HIST","matrix":"default","warmup":-1}`, 0,
			"72548f0e9bd341153e673911342b20c70183eee6450ef34fbdd6ecb058268d66"},
		{`{"source":"addi a0, a0, 1","runs":3,"measureStages":true,"heatmapWindows":16,"label":"x","parallel":2}`, 5000,
			"d9d049b0a96178703f6035e5a401184bff80d169147606792c06dffcd984e5f1"},
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(c.raw), &req); err != nil {
			t.Fatalf("decode %s: %v", c.raw, err)
		}
		if err := req.validate(); err != nil {
			t.Fatalf("validate %s: %v", c.raw, err)
		}
		if got := jobCacheKey(req, c.maxCycles); got != c.want {
			t.Errorf("jobCacheKey(%s, %d) = %s, want %s", c.raw, c.maxCycles, got, c.want)
		}
	}
	for _, c := range []struct{ raw, want string }{
		{`{"workload":"ME-NAIVE"}`,
			"72d1e5d2b2c3c5d8ec699fb6b121c6a09050b220f4a7a604236ab7a7c16d3c44"},
		// A batch cell of the default grid.
		{`{"workload":"TAGE-HIST","cell":"base=mega,prefetch=none,predictor=tage","runs":2}`,
			"bfb2a50d54c6167632d5f9bbf9f197ff71029f866934a1f04662b12934ad0a58"},
		{`{"source":"nop","config":"small","fastBypass":true,"runs":2,"warmup":2}`,
			"411703f13aa883425daaded9d27f7a39d8ffcbee2c6a18db885b713bb5e62eb8"},
		{`{"source":"nop","config":"SmallBoom","warmup":-7,"seedOffset":4,"label":"y"}`,
			"90a4faafb7f8962b1cbf73af23f95c5b17709c70c1ddcfe8a4cd362c88adaa91"},
	} {
		var p cluster.Point
		if err := json.Unmarshal([]byte(c.raw), &p); err != nil {
			t.Fatalf("decode %s: %v", c.raw, err)
		}
		if got, err := p.Key(0); err != nil || got != c.want {
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
		key := jobCacheKey(req, 0)
		if key == "" {
			t.Fatalf("accepted request has no key: %s", raw)
		}
		if again := jobCacheKey(req, 0); again != key {
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
		if k := jobCacheKey(back, 0); k != key {
			t.Fatalf("JSON round trip changed the key: %s vs %s", key, k)
		}
		mutated := req
		mutated.SeedOffset++
		if jobCacheKey(mutated, 0) == key {
			t.Fatal("seed mutation did not change the key")
		}
		if req.Matrix != "" {
			return
		}
		jobKey, err := req.point().Key(0)
		if err != nil {
			t.Fatalf("accepted request has no point key: %v", err)
		}
		batch := BatchRequest{Entries: []BatchEntry{{
			Workload: req.Workload, Source: req.Source,
			Config: req.Config, FastBypass: req.FastBypass,
			Runs: req.Runs, Warmup: req.Warmup, SeedOffset: req.SeedOffset,
			MeasureStages: req.MeasureStages,
		}}}
		_, keys, err := batch.explode(0)
		if err != nil {
			t.Fatalf("equivalent batch entry rejected: %v", err)
		}
		if keys[0] != jobKey {
			t.Fatalf("job and batch point keys differ: %s vs %s", jobKey, keys[0])
		}
	})
}

// TestSingleflightDedupesInFlightJobs: two identical jobs running
// concurrently share one verification; the follower is marked cached.
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
	// Wait until both jobs are running (each on its own worker), then
	// give the follower a beat to join the in-flight call before the
	// leader is released.
	for _, id := range []string{a.ID, b.ID} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, code := getView(t, ts.URL, id)
			if code == http.StatusOK && v.Status == string(StatusRunning) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(100 * time.Millisecond)
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
	if secondDone.Leaky == nil || *secondDone.Leaky != *firstDone.Leaky {
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
