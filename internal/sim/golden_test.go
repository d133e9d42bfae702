package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCase is one simulation pinned by TestSimResultGolden: a
// catalogue kernel on one configuration, run at seed 0.
type goldenCase struct {
	name     string
	workload string
	cfg      sim.Config
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, base := range []sim.Config{sim.MegaBoom(), sim.SmallBoom()} {
		for _, w := range workloads.Names() {
			cases = append(cases, goldenCase{w + "@" + base.Name, w, base})
		}
	}
	for _, cell := range core.DefaultGrid().Cells() {
		cfg, err := cell.Config()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"TAGE-HIST", "SPF-STREAM"} {
			cases = append(cases, goldenCase{w + "@" + cell.Name, w, cfg})
		}
	}
	return cases
}

// TestSimResultGolden pins the full sim.Result of every catalogue
// kernel at seed 0 on MegaBoom and SmallBoom, and of TAGE-HIST and
// SPF-STREAM on every default-grid cell: cycles, retired instructions,
// program output and every cache, predictor and prefetcher counter. A
// change to the pipeline's internals that is meant to keep timing
// exactly must leave this file untouched. The subtests run in
// parallel, so under -race they also catch state shared between
// machines.
func TestSimResultGolden(t *testing.T) {
	golden := filepath.Join("testdata", "result_golden.json")
	want := map[string]sim.Result{}
	if !*update {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]sim.Result{}
	t.Cleanup(func() {
		if *update && !t.Failed() {
			if err := os.WriteFile(golden, encodeGolden(t, got), 0o644); err != nil {
				t.Error(err)
			}
		}
	})
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := runSeed0(t, tc.workload, tc.cfg)
			mu.Lock()
			got[tc.name] = res
			mu.Unlock()
			if *update {
				return
			}
			exp, ok := want[tc.name]
			if !ok {
				t.Fatalf("no golden result (rerun with -update if the case is new)")
			}
			a, b := mustJSON(t, res), mustJSON(t, exp)
			if !bytes.Equal(a, b) {
				t.Errorf("result drifted from golden\ngot:  %s\nwant: %s", a, b)
			}
		})
	}
}

// runSeed0 runs workload on cfg with the inputs of run index 0.
func runSeed0(t *testing.T, workload string, cfg sim.Config) sim.Result {
	t.Helper()
	res, err := runTraced(t, workload, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runTraced runs a catalogue kernel with the inputs of run 0 on cfg,
// with tr (which may be nil) attached, and returns the run's result and
// error.
func runTraced(t *testing.T, name string, cfg sim.Config, tr sim.Tracer) (sim.Result, error) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if w.Setup != nil {
		if err := w.Setup(0, m, prog); err != nil {
			t.Fatal(err)
		}
	}
	m.SetTracer(tr)
	return m.Run(20_000_000)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeGolden writes one case per line, sorted by name, so a drift
// shows up as a one-line diff.
func encodeGolden(t *testing.T, results map[string]sim.Result) []byte {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, n := range names {
		buf.Write(mustJSON(t, n))
		buf.WriteString(": ")
		buf.Write(mustJSON(t, results[n]))
		if i < len(names)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}
