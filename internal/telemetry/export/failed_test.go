package export

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/telemetry"
)

// fixedFailedSpans is a synthetic span tree of a verification that died
// mid-flight: two run spans for run 0, the second carrying a detail
// string, and then the run was aborted, so the tree is truncated — no
// stats or extract stages — and the enclosing spans were force-ended at
// abort time.
func fixedFailedSpans() []telemetry.Span {
	base := time.Unix(100, 0).UTC()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	return []telemetry.Span{
		{ID: 3, Parent: 2, Name: "run", Run: 0, Start: at(1), Dur: 30 * time.Millisecond},
		{ID: 4, Parent: 3, Name: "execute", Run: 0, Start: at(2), Dur: 28 * time.Millisecond},
		{ID: 5, Parent: 2, Name: "run", Run: 0, Detail: "attempt 2 after stall", Start: at(32), Dur: 31 * time.Millisecond},
		{ID: 6, Parent: 5, Name: "execute", Run: 0, Start: at(33), Dur: 29 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "simulate", Run: -1, Start: at(1), Dur: 63 * time.Millisecond},
		{ID: 7, Parent: 1, Name: "merge", Run: -1, Start: at(64), Dur: time.Millisecond},
		{ID: 1, Parent: 0, Name: "verify", Run: -1, Start: at(0), Dur: 65 * time.Millisecond},
	}
}

// TestPerfettoFailedGolden pins the rendering of a failure-truncated
// span tree: aborted verifications must still export byte-identically.
func TestPerfettoFailedGolden(t *testing.T) {
	got, err := Perfetto(fixedFailedSpans()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "perfetto_failed_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("failed-run perfetto drifted from golden (rerun with -update if intended)\ngot:\n%s", got)
	}
	again, err := Perfetto(fixedFailedSpans()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(again, '\n')) {
		t.Error("failed-run perfetto conversion is not deterministic")
	}
}

// TestPerfettoFromFailedVerify drives a real verification into each
// failure mode with a live trace sink and requires the JSONL stream to
// convert into a valid trace document — the force-ended spans of an
// aborted pipeline must not corrupt the export.
func TestPerfettoFromFailedVerify(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts core.Options
	}{
		{
			name: "nonzero-exit",
			src: `
_start:
	li a0, 7
	li a7, 93
	ecall
`,
		},
		{
			name: "timeout",
			src: `
_start:
spin:
	j spin
`,
			opts: core.Options{MaxCycles: 2000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sink bytes.Buffer
			opts := tc.opts
			opts.TraceSink = &sink
			_, err := core.Verify(core.Workload{Name: tc.name, Source: tc.src}, opts)
			if err == nil {
				t.Fatal("want verification failure")
			}
			if sink.Len() == 0 {
				t.Fatal("failed verify produced no spans")
			}
			tr, err := PerfettoFromJSONL(bytes.NewReader(sink.Bytes()))
			if err != nil {
				t.Fatalf("failed-run span stream did not convert: %v", err)
			}
			data, err := tr.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Ts   float64 `json:"ts"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("invalid trace JSON: %v", err)
			}
			var sawVerify bool
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" && (ev.Ts < 0 || ev.Dur < 0) {
					t.Errorf("event %q has negative time: ts=%g dur=%g", ev.Name, ev.Ts, ev.Dur)
				}
				if ev.Name == "verify" {
					sawVerify = true
				}
			}
			if !sawVerify {
				t.Error("root verify span missing — abort did not end the enclosing spans")
			}
		})
	}
}
