package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microsampler"
)

func TestUnitByName(t *testing.T) {
	u, err := unitByName("sq-addr")
	if err != nil || u != microsampler.SQADDR {
		t.Errorf("unitByName(sq-addr) = %v, %v", u, err)
	}
	if _, err := unitByName("bogus"); err == nil {
		t.Error("unknown unit should error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil ||
		!strings.Contains(err.Error(), "-workload or -src") {
		t.Errorf("missing workload: %v", err)
	}
	if err := run([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload should error")
	}
	if err := run([]string{"-workload", "ME-NAIVE", "-config", "huge"}); err == nil {
		t.Error("unknown config should error")
	}
	if err := run([]string{"-src", "/definitely/missing.s"}); err == nil {
		t.Error("missing source file should error")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSourceFile(t *testing.T) {
	src := `
	.text
_start:
	li   s2, 8
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
`
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-src", path, "-runs", "2", "-warmup", "1",
		"-config", "small", "-chart=false"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	if err := run([]string{"-workload", "ME-NAIVE", "-runs", "2",
		"-warmup", "2", "-config", "small", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "spans.jsonl")
	err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "1",
		"-config", "small", "-parallel", "2", "-chart=false",
		"-metrics", "-trace-out", traceFile, "-progress"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("expected spans on sink, got %d lines", len(lines))
	}
	for _, line := range lines {
		var span map[string]interface{}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("malformed span line %q: %v", line, err)
		}
		for _, key := range []string{"id", "name", "startNs", "durNs"} {
			if _, ok := span[key]; !ok {
				t.Fatalf("span line missing %q: %s", key, line)
			}
		}
	}
}

func TestRunExportFlags(t *testing.T) {
	dir := t.TempDir()
	perfetto := filepath.Join(dir, "trace.json")
	hmJSON := filepath.Join(dir, "heatmap.json")
	hmHTML := filepath.Join(dir, "heatmap.html")
	err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "2",
		"-config", "small", "-chart=false",
		"-perfetto-out", perfetto,
		"-heatmap-out", hmJSON, "-heatmap-html", hmHTML, "-heatmap-windows", "8"})
	if err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	data, err := os.ReadFile(perfetto)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("perfetto trace: err=%v events=%d", err, len(trace.TraceEvents))
	}

	var hm struct {
		Windows int `json:"windows"`
		Units   []struct {
			Unit  string                   `json:"unit"`
			Cells []map[string]interface{} `json:"cells"`
		} `json:"units"`
	}
	data, err = os.ReadFile(hmJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &hm); err != nil {
		t.Fatal(err)
	}
	if hm.Windows != 8 || len(hm.Units) == 0 || len(hm.Units[0].Cells) != 8 {
		t.Errorf("heatmap shape: windows=%d units=%d", hm.Windows, len(hm.Units))
	}

	html, err := os.ReadFile(hmHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<svg") || !strings.Contains(string(html), "</html>") {
		t.Error("heatmap HTML incomplete")
	}
}

func TestRunProvenanceFlags(t *testing.T) {
	dir := t.TempDir()
	pvJSON := filepath.Join(dir, "prov.json")
	pvHTML := filepath.Join(dir, "prov.html")
	err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "2",
		"-config", "small", "-chart=false",
		"-provenance-out", pvJSON, "-provenance-html", pvHTML})
	if err != nil {
		t.Fatal(err)
	}
	var pv struct {
		Iterations int `json:"iterations"`
		Entries    []struct {
			Unit string `json:"unit"`
			PC   uint64 `json:"pc"`
			Via  string `json:"via"`
		} `json:"entries"`
	}
	data, err := os.ReadFile(pvJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &pv); err != nil {
		t.Fatal(err)
	}
	// ME-NAIVE is the paper's canonical leaky case study: the ranking
	// must localize at least one instruction.
	if pv.Iterations == 0 || len(pv.Entries) == 0 {
		t.Errorf("provenance empty: iterations=%d entries=%d", pv.Iterations, len(pv.Entries))
	}
	html, err := os.ReadFile(pvHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "Leakage provenance") ||
		!strings.Contains(string(html), "</html>") {
		t.Error("provenance HTML incomplete")
	}
}

func TestRunFlightRecorderFlags(t *testing.T) {
	// A run that exits nonzero must fail AND leave the post-mortem.
	src := `
_start:
	li   t0, 50
spin:
	addi t0, t0, -1
	bnez t0, spin
	li a0, 9
	li a7, 93
	ecall
`
	dir := t.TempDir()
	prog := filepath.Join(dir, "fail.s")
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "postmortem.json")
	err := run([]string{"-src", prog, "-runs", "1", "-config", "small",
		"-chart=false", "-flight-recorder-out", out})
	if err == nil {
		t.Fatal("want verification failure")
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	data, readErr := os.ReadFile(out)
	if readErr != nil {
		t.Fatalf("post-mortem not written: %v", readErr)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("post-mortem invalid: err=%v events=%d", err, len(doc.TraceEvents))
	}
	if doc.OtherData["source"] != "microsampler flight recorder" {
		t.Errorf("post-mortem otherData = %v", doc.OtherData)
	}
	// Explicit frame budget round-trips through the option layer:
	// negative values are rejected by validation.
	if err := run([]string{"-src", prog, "-runs", "1", "-config", "small",
		"-chart=false", "-flight-recorder", "-1"}); err == nil ||
		!strings.Contains(err.Error(), "FlightRecorderFrames") {
		t.Errorf("negative -flight-recorder: %v", err)
	}
}

func TestRunFaultToleranceFlags(t *testing.T) {
	err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "1",
		"-config", "small", "-chart=false",
		"-run-timeout", "30s", "-retries", "2"})
	if err != nil {
		t.Fatal(err)
	}
	// Negative values are rejected by option validation, not silently
	// clamped.
	if err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "1",
		"-config", "small", "-chart=false", "-retries", "-1"}); err == nil ||
		!strings.Contains(err.Error(), "Options.Retry") {
		t.Errorf("negative -retries: %v", err)
	}
	if err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "1",
		"-config", "small", "-chart=false", "-run-timeout", "-1s"}); err == nil ||
		!strings.Contains(err.Error(), "RunTimeout") {
		t.Errorf("negative -run-timeout: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed, failing the test if fn errors.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(data)
}

// countCacheBlobs walks the cache dir and counts stored blobs; a cache
// hit adds none, a miss adds one.
func countCacheBlobs(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".bin") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunJSONCacheReplay(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := func(extra ...string) []string {
		return append([]string{"-workload", "ME-NAIVE", "-runs", "2",
			"-warmup", "2", "-config", "small", "-json",
			"-cache-dir", cacheDir}, extra...)
	}
	first := captureStdout(t, func() error { return run(args()) })
	if n := countCacheBlobs(t, cacheDir); n != 1 {
		t.Fatalf("blobs after first run = %d, want 1", n)
	}
	second := captureStdout(t, func() error { return run(args()) })
	if second != first {
		t.Error("cached replay not byte-identical to the original report")
	}
	if n := countCacheBlobs(t, cacheDir); n != 1 {
		t.Errorf("blobs after replay = %d, want 1 (replay must not re-verify)", n)
	}
	// A detection-relevant change (seed range) misses and re-verifies.
	third := captureStdout(t, func() error { return run(args("-runs", "3")) })
	if third == first {
		t.Error("different run count served the same cached report")
	}
	if n := countCacheBlobs(t, cacheDir); n != 2 {
		t.Errorf("blobs after changed run = %d, want 2", n)
	}
}

func TestRunMatrixCacheReplay(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	out1 := filepath.Join(dir, "m1.json")
	out2 := filepath.Join(dir, "m2.json")
	args := func(out string) []string {
		return []string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "2",
			"-matrix", "base=small;prefetch=none,stride",
			"-cache-dir", cacheDir, "-matrix-out", out}
	}
	first := captureStdout(t, func() error { return run(args(out1)) })
	second := captureStdout(t, func() error { return run(args(out2)) })
	if second != first {
		t.Error("matrix replay text differs from the original sweep")
	}
	if n := countCacheBlobs(t, cacheDir); n != 1 {
		t.Errorf("blobs after matrix replay = %d, want 1", n)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("matrix artifact bytes differ across replay")
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := run([]string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "1",
		"-config", "small", "-chart=false",
		"-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	// The CPU profile is stopped by run's deferred StopCPUProfile; the
	// heap profile is written by the deferred memprofile hook.
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

func TestRunVersionFlag(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-version"}) })
	if !strings.Contains(out, "microsampler") || !strings.Contains(out, "commit") {
		t.Errorf("-version output: %q", out)
	}
}

func TestRunDiffFlagValidation(t *testing.T) {
	if err := run([]string{"-workload", "ME-NAIVE", "-diff-against", "x"}); err == nil ||
		!strings.Contains(err.Error(), "-history-dir") {
		t.Errorf("-diff-against without -history-dir: %v", err)
	}
	if err := run([]string{"-workload", "ME-NAIVE", "-history-dir", t.TempDir(),
		"-diff-against", "x", "-diff-baseline", "y"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both diff sources: %v", err)
	}
	if err := run([]string{"-workload", "ME-NAIVE", "-matrix", "base=small",
		"-digest-out", "x.json"}); err == nil ||
		!strings.Contains(err.Error(), "-digest-out") {
		t.Errorf("-digest-out with -matrix: %v", err)
	}
}

// TestRunHistoryAndDiffGate is the CI-gate contract end to end: a clean
// baseline recorded in the history store, a self-diff that passes, and
// a leak (a different workload under the same probes) that flips units
// clean→leaky and makes the process exit nonzero.
func TestRunHistoryAndDiffGate(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "history")
	base := []string{"-runs", "2", "-warmup", "2", "-config", "small", "-chart=false",
		"-history-dir", hist}

	// Record the clean baseline.
	if err := run(append(base, "-workload", "ME-V2-SAFE", "-label", "base")); err != nil {
		t.Fatal(err)
	}

	// Unchanged re-run diffs quiet and exits zero.
	diffOut := filepath.Join(dir, "self.json")
	if err := run(append(base, "-workload", "ME-V2-SAFE", "-label", "head",
		"-diff-against", "base", "-diff-out", diffOut)); err != nil {
		t.Fatalf("self-diff must pass: %v", err)
	}
	var self struct {
		Regressions int           `json:"regressions"`
		Flips       []interface{} `json:"flips"`
	}
	data, err := os.ReadFile(diffOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &self); err != nil {
		t.Fatal(err)
	}
	if self.Regressions != 0 || len(self.Flips) != 0 {
		t.Fatalf("self-diff not quiet: %s", data)
	}

	// The leaky workload under the same label regresses: nonzero exit,
	// diff artifacts written with the flips highlighted.
	regOut := filepath.Join(dir, "reg.json")
	regHTML := filepath.Join(dir, "reg.html")
	err = run(append(base, "-workload", "ME-NAIVE", "-label", "leaky",
		"-diff-against", "base", "-diff-out", regOut, "-diff-html", regHTML))
	if err == nil || !strings.Contains(err.Error(), "verdict regression") {
		t.Fatalf("regression must fail the run: %v", err)
	}
	var reg struct {
		Regressions int `json:"regressions"`
	}
	data, err = os.ReadFile(regOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &reg); err != nil || reg.Regressions == 0 {
		t.Fatalf("regression diff artifact: %v, %s", err, data)
	}
	html, err := os.ReadFile(regHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "VERDICT FLIP") {
		t.Error("diff HTML does not highlight the flips")
	}

	// All three runs are in the store, artifacts included.
	store, err := microsampler.OpenHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 3 {
		t.Fatalf("history has %d records, want 3", store.Len())
	}
	rec, ok := store.Latest("leaky", "", microsampler.HistoryKindReport)
	if !ok || !rec.Leaky || len(rec.LeakyUnits) == 0 {
		t.Fatalf("leaky record: %+v ok=%v", rec, ok)
	}
	if _, err := store.Artifact(rec, "digest"); err != nil {
		t.Fatal(err)
	}
}

func TestRunDigestOutAndBaselineFile(t *testing.T) {
	dir := t.TempDir()
	digest := filepath.Join(dir, "digest.json")
	args := []string{"-workload", "ME-NAIVE", "-runs", "2", "-warmup", "2",
		"-config", "small", "-chart=false"}
	if err := run(append(args, "-digest-out", digest)); err != nil {
		t.Fatal(err)
	}

	// Self-diff against the digest file: quiet.
	if err := run(append(args, "-diff-baseline", digest)); err != nil {
		t.Fatalf("self-diff against digest file: %v", err)
	}

	// Flip injection: rewrite the baseline with every unit clean, so the
	// fresh (leaky) run must trip the gate.
	data, err := os.ReadFile(digest)
	if err != nil {
		t.Fatal(err)
	}
	var d microsampler.ReportDigest
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	d.Leaky = false
	for i := range d.Units {
		d.Units[i].Leaky = false
	}
	mutated, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	cleanBase := filepath.Join(dir, "clean.json")
	if err := os.WriteFile(cleanBase, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-diff-baseline", cleanBase)); err == nil ||
		!strings.Contains(err.Error(), "verdict regression") {
		t.Fatalf("injected flip not detected: %v", err)
	}
}

// TestRunMatrixDiffGate exercises the sweep-level gate, including the
// cache-replay path: an unchanged re-sweep diffs quiet off the cached
// artifact, and an injected flip in the baseline trips the gate.
func TestRunMatrixDiffGate(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	hist := filepath.Join(dir, "history")
	art := filepath.Join(dir, "matrix.json")
	args := func(extra ...string) []string {
		return append([]string{"-workload", "TAGE-HIST", "-runs", "4", "-warmup", "4",
			"-matrix", "predictor=gshare,tage", "-cache-dir", cacheDir,
			"-history-dir", hist}, extra...)
	}
	if err := run(args("-label", "base", "-matrix-out", art)); err != nil {
		t.Fatal(err)
	}
	if n := countCacheBlobs(t, cacheDir); n != 1 {
		t.Fatalf("blobs after sweep = %d, want 1", n)
	}

	// Unchanged re-sweep: served from cache, self-diff quiet, recorded.
	if err := run(args("-label", "head", "-diff-against", "base")); err != nil {
		t.Fatalf("cached self-diff must pass: %v", err)
	}
	if n := countCacheBlobs(t, cacheDir); n != 1 {
		t.Errorf("diffing re-sweep re-verified: %d blobs", n)
	}

	// Inject a flip: a baseline claiming every cell clean.
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	var m microsampler.MatrixArtifact
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for i := range m.Cells {
		m.Cells[i].Leaky = false
	}
	mutated, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	cleanBase := filepath.Join(dir, "clean.json")
	if err := os.WriteFile(cleanBase, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	diffOut := filepath.Join(dir, "diff.json")
	diffHTML := filepath.Join(dir, "diff.html")
	err = run(args("-label", "head2", "-diff-baseline", cleanBase,
		"-diff-out", diffOut, "-diff-html", diffHTML))
	if err == nil || !strings.Contains(err.Error(), "verdict regression") {
		t.Fatalf("injected matrix flip not detected: %v", err)
	}
	var d struct {
		Regressions int `json:"regressions"`
	}
	data, err = os.ReadFile(diffOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &d); err != nil || d.Regressions != 1 {
		t.Fatalf("matrix diff artifact: %v, %s", err, data)
	}
	html, err := os.ReadFile(diffHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "VERDICT FLIP") ||
		strings.Count(string(html), "<svg") != 2 {
		t.Error("matrix diff HTML incomplete")
	}

	// The history store saw all three sweeps.
	store, err := microsampler.OpenHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 3 {
		t.Fatalf("history has %d records, want 3", store.Len())
	}
	rec, ok := store.Latest("", "TAGE-HIST", microsampler.HistoryKindMatrix)
	if !ok || rec.Cells != 2 || len(rec.LeakyCells) != 1 {
		t.Fatalf("matrix record: %+v ok=%v", rec, ok)
	}
}
