package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke boots the daemon on an ephemeral port, submits a real
// verification job over HTTP, polls it to completion, downloads the
// artifacts, scrapes /metrics, and shuts the daemon down cleanly — the
// full lifecycle a deployment exercises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test runs a real simulation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-workers", "1",
			"-log-format", "json",
			"-log-level", "error",
			"-drain-timeout", "60s",
			"-flight-recorder", "256",
			"-journal-dir", t.TempDir(),
		}, ready)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Health and readiness respond before any job runs.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	// Submit the quickstart workload on the small core, few runs, so
	// the smoke test stays fast.
	body, _ := json.Marshal(map[string]any{
		"workload": "ME-NAIVE",
		"config":   "small",
		"runs":     2,
		"warmup":   2,
		"label":    "smoke",
	})
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status=%d job=%+v", resp.StatusCode, job)
	}

	// Poll to completion.
	var final struct {
		Status    string   `json:"status"`
		Error     string   `json:"error"`
		Leaky     *bool    `json:"leaky"`
		Artifacts []string `json:"artifacts"`
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&final)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if final.Status == "done" || final.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", final.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.Status != "done" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Leaky == nil || !*final.Leaky {
		t.Error("ME-NAIVE should be flagged leaky")
	}
	if len(final.Artifacts) != 7 {
		t.Errorf("artifacts: %v", final.Artifacts)
	}

	// The labeled run is listed in the journal's run history.
	resp, err = http.Get(base + "/api/v1/history?label=smoke")
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Records []map[string]any `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil || len(hist.Records) != 1 {
		t.Errorf("history: err=%v records=%+v", err, hist.Records)
	} else if hist.Records[0]["leaky"] != true || hist.Records[0]["kind"] != "report" {
		t.Errorf("history record: %+v", hist.Records[0])
	}

	// The progress endpoint reports the terminal state with the full
	// cycle count.
	resp, err = http.Get(base + "/api/v1/jobs/" + job.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var pg struct {
		Stage  string `json:"stage"`
		Cycles int64  `json:"cycles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pg)
	resp.Body.Close()
	if err != nil || pg.Stage != "done" || pg.Cycles == 0 {
		t.Errorf("progress after completion: err=%v %+v", err, pg)
	}

	// The provenance artifact localizes ME-NAIVE's leak to at least one
	// instruction.
	resp, err = http.Get(base + "/api/v1/jobs/" + job.ID + "/provenance")
	if err != nil {
		t.Fatal(err)
	}
	var pv struct {
		Entries []map[string]any `json:"entries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pv)
	resp.Body.Close()
	if err != nil || len(pv.Entries) == 0 {
		t.Errorf("provenance artifact: err=%v entries=%d", err, len(pv.Entries))
	}

	// The Perfetto artifact is a valid trace document.
	resp, err = http.Get(base + "/api/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace artifact: err=%v events=%d", err, len(trace.TraceEvents))
	}

	// /metrics carries daemon and pipeline series after the job.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(strings.Builder)
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		metrics.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	for _, want := range []string{
		"msd_jobs_completed_total 1",
		"# TYPE msd_job_seconds histogram",
		"verify_stage_seconds",
		"sim_cycles_total",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Graceful shutdown: cancel the context and require a clean exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestVersionFlag: -version prints and exits cleanly without binding a
// listener.
func TestVersionFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-version", "-addr", "256.0.0.1:99999"}, nil); err != nil {
		t.Errorf("-version: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-log-level", "loud"}, nil); err == nil {
		t.Error("bad log level must error")
	}
	if err := run(ctx, []string{"-log-format", "xml"}, nil); err == nil {
		t.Error("bad log format must error")
	}
	if err := run(ctx, []string{"-addr", "256.0.0.1:99999"}, nil); err == nil {
		t.Error("bad listen address must error")
	}
	if err := run(ctx, []string{"-worker-ttl", "fast"}, nil); err == nil {
		t.Error("malformed -worker-ttl must error")
	}
	// The bad address makes the run fail fast should the flag parse.
	if err := run(ctx, []string{"-addr", "256.0.0.1:99999", "-watchdog", "30s"}, nil); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-watchdog must be an unknown flag, got %v", err)
	}
	if err := run(ctx, []string{"-flight-recorder", "many"}, nil); err == nil {
		t.Error("malformed -flight-recorder must error")
	}
}

// TestAuditVerifyFlag exercises the offline audit mode: a journal
// without audit records passes (everything is pending), a forged audit
// record fails, and the flag demands a journal directory.
func TestAuditVerifyFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-audit-verify"}, nil); err == nil {
		t.Error("-audit-verify without -journal-dir must error")
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	clean := `{"event":"submit","id":"job-1","req":{"source":"nop"}}
{"event":"start","id":"job-1"}
{"event":"done","id":"job-1","leaky":true}
`
	if err := os.WriteFile(journal, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-audit-verify", "-journal-dir", dir}, nil); err != nil {
		t.Errorf("clean journal failed -audit-verify: %v", err)
	}

	forged := clean + `{"event":"audit","root":"deadbeef","prev":"` + strings.Repeat("0", 64) + `","first":1,"count":1}` + "\n"
	if err := os.WriteFile(journal, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-audit-verify", "-journal-dir", dir}, nil); err == nil {
		t.Error("forged audit root passed -audit-verify")
	}
}
