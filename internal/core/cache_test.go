package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"microsampler/internal/sim"
)

func mustKey(t *testing.T, w Workload, opts Options) string {
	t.Helper()
	k, err := CacheKey(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheKeyCanonicalization(t *testing.T) {
	w := Workload{Name: "smoke", Source: smokeWorkload}
	// Spelling out a default must hash identically to omitting it.
	implicit := mustKey(t, w, Options{})
	explicit := mustKey(t, w, Options{
		Config: sim.MegaBoom(), Runs: 1, Warmup: 2,
		MaxCycles: 20_000_000,
	})
	if implicit != explicit {
		t.Errorf("defaulted and explicit options produced different keys:\n%s\n%s",
			implicit, explicit)
	}
	// Execution-strategy fields must not perturb the key.
	strategic := mustKey(t, w, Options{Parallel: 4, RunTimeout: time.Minute})
	if strategic != implicit {
		t.Error("Parallel/RunTimeout changed the cache key")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	w := Workload{Name: "smoke", Source: smokeWorkload}
	base := mustKey(t, w, Options{})
	small := sim.SmallBoom()
	fb := sim.MegaBoom()
	fb.FastBypass = true
	for name, k := range map[string]string{
		"program": mustKey(t, Workload{Name: "smoke", Source: leakWorkload}, Options{}),
		"name":    mustKey(t, Workload{Name: "other", Source: smokeWorkload}, Options{}),
		"config":  mustKey(t, w, Options{Config: small}),
		"flag":    mustKey(t, w, Options{Config: fb}),
		"seed":    mustKey(t, w, Options{SeedOffset: 7}),
		"runs":    mustKey(t, w, Options{Runs: 2}),
		"warmup":  mustKey(t, w, Options{Warmup: NoWarmup}),
		"cycles":  mustKey(t, w, Options{MaxCycles: 1000}),
	} {
		if k == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

func TestCacheKeyRejectsInvalidOptions(t *testing.T) {
	if _, err := CacheKey(Workload{Name: "x"}, Options{Runs: -1}); err == nil {
		t.Fatal("CacheKey accepted negative Runs")
	}
}

func TestMatrixCacheKeyCanonical(t *testing.T) {
	w := Workload{Name: "smoke", Source: smokeWorkload}
	a, err := MatrixCacheKey(w, MatrixOptions{Grid: GridSpec{Axes: []Axis{
		{Name: "predictor", Values: []string{"gshare", "tage"}},
		{Name: "prefetch", Values: []string{"nlp", "none"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// Reordered axes enumerate the same canonical cells.
	b, err := MatrixCacheKey(w, MatrixOptions{Grid: GridSpec{Axes: []Axis{
		{Name: "prefetch", Values: []string{"nlp", "none"}},
		{Name: "predictor", Values: []string{"gshare", "tage"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("axis order changed the matrix cache key")
	}
	// CellParallel is execution strategy.
	cpar, err := MatrixCacheKey(w, MatrixOptions{CellParallel: 4, Grid: GridSpec{Axes: []Axis{
		{Name: "predictor", Values: []string{"gshare", "tage"}},
		{Name: "prefetch", Values: []string{"nlp", "none"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if cpar != a {
		t.Error("CellParallel changed the matrix cache key")
	}
	// A different cell set must not share a key.
	c, err := MatrixCacheKey(w, MatrixOptions{Grid: GridSpec{Axes: []Axis{
		{Name: "prefetch", Values: []string{"nlp", "none"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different grids share a matrix cache key")
	}
}

// capturedRunIDs sweeps a two-cell grid with a JSON slog handler and
// returns the distinct run_id attributes observed.
func capturedRunIDs(t *testing.T, runID string) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	var mu sync.Mutex
	lg := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	w := Workload{Name: "smoke", Source: smokeWorkload}
	opts := MatrixOptions{
		Options: Options{Runs: 1, Warmup: 1, Logger: lg, RunID: runID},
		Grid:    GridSpec{Axes: []Axis{{Name: "prefetch", Values: []string{"nlp", "none"}}}},
	}
	if _, err := VerifyMatrix(w, opts); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		id, _ := rec["run_id"].(string)
		ids[id] = true
	}
	return ids
}

// TestMatrixCellRunIDs pins the per-cell run-ID derivation: cells must
// never log with an empty run ID (which made cells indistinguishable),
// and each cell's ID must be distinct.
func TestMatrixCellRunIDs(t *testing.T) {
	ids := capturedRunIDs(t, "")
	if ids[""] {
		t.Error("matrix cell logged with an empty run_id")
	}
	for _, want := range []string{"prefetch=nlp", "prefetch=none"} {
		if !ids[want] {
			t.Errorf("no log records with run_id %q (got %v)", want, ids)
		}
	}

	prefixed := capturedRunIDs(t, "job-7")
	for _, want := range []string{"job-7/prefetch=nlp", "job-7/prefetch=none"} {
		if !prefixed[want] {
			t.Errorf("no log records with run_id %q (got %v)", want, prefixed)
		}
	}
}
