package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{Max: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

// longWorkload is leakWorkload stretched to ~1600 cycles on SmallBoom,
// past the simulator's 1024-cycle progress interval, so a RunProbe
// cycle sink runs in the middle of every attempt.
var longWorkload = strings.Replace(leakWorkload, "li   s2, 40", "li   s2, 200", 1)

// sinkProbe returns a probe whose cycle sink calls fn with the 1-based
// count of sink calls so far. The sink runs on the simulation goroutine
// every 1024 simulated cycles, so fn can wedge or crash the attempt that
// is running. A wedged attempt makes exactly one sink call: after the
// watchdog or deadline aborts it, no further cycles are flushed.
func sinkProbe(fn func(call int64)) *RunProbe {
	p := NewRunProbe()
	var calls atomic.Int64
	p.SetCycleSink(func(int64) { fn(calls.Add(1)) })
	return p
}

// wedgeFirst returns a sink body that blocks its first n calls for
// block, long enough for a watchdog or run deadline to expire under it.
func wedgeFirst(n int64, block time.Duration) func(call int64) {
	return func(call int64) {
		if call <= n {
			time.Sleep(block)
		}
	}
}

func TestRetryTransientSucceeds(t *testing.T) {
	m := telemetry.NewRegistry()
	probe := sinkProbe(wedgeFirst(2, 500*time.Millisecond))
	rep, err := Verify(Workload{Name: "flaky", Source: longWorkload}, Options{
		Config:   sim.SmallBoom(),
		Runs:     2,
		Watchdog: 50 * time.Millisecond,
		Retry:    fastRetry,
		Probe:    probe,
		Metrics:  m,
	})
	if err != nil {
		t.Fatalf("verify with stalled attempts and retries: %v", err)
	}
	// Run 0 burned 2 stalled attempts before succeeding.
	if rep.Retries != 2 || probe.Snapshot().Retries != 2 {
		t.Errorf("Report.Retries = %d, probe retries = %d, want 2",
			rep.Retries, probe.Snapshot().Retries)
	}
	if got := m.Counter("verify_retries_total").Value(); got != 2 {
		t.Errorf("verify_retries_total = %d want 2", got)
	}
	if got := m.Counter("verify_run_stalls_total").Value(); got != 2 {
		t.Errorf("verify_run_stalls_total = %d want 2", got)
	}

	// The retried verification reaches the same verdicts as an
	// undisturbed one: retried attempts restart from reset state with
	// the same seed.
	base, err := Verify(Workload{Name: "flaky", Source: longWorkload},
		Options{Config: sim.SmallBoom(), Runs: 2})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if got, want := leakyNamesOf(rep), leakyNamesOf(base); got != want {
		t.Errorf("verdicts diverged under retry: %q vs baseline %q", got, want)
	}
}

func TestUnmarkedErrorNotRetried(t *testing.T) {
	var attempts atomic.Int64
	_, err := Verify(Workload{
		Name:   "plain",
		Source: smokeWorkload,
		Setup: func(int, *sim.Machine, *asm.Program) error {
			attempts.Add(1)
			return errors.New("unclassified")
		},
	}, Options{Config: sim.SmallBoom(), Retry: fastRetry})
	if err == nil || !strings.Contains(err.Error(), "unclassified") {
		t.Fatalf("want the unclassified error, got %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("unmarked error consumed %d attempts, want 1", n)
	}
}

func TestRetryExhaustionSurfacesTransient(t *testing.T) {
	var attempts atomic.Int64
	rep, err := Verify(Workload{
		Name:   "hopeless",
		Source: longWorkload,
		Setup: func(int, *sim.Machine, *asm.Program) error {
			attempts.Add(1)
			return nil
		},
	}, Options{
		Config:   sim.SmallBoom(),
		Watchdog: 20 * time.Millisecond,
		Retry:    RetryPolicy{Max: 2, BaseDelay: 50 * time.Microsecond},
		Probe:    sinkProbe(wedgeFirst(1<<30, 200*time.Millisecond)),
	})
	if rep != nil || !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want the stall surfaced after exhaustion, got rep=%v err=%v", rep, err)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("Max=2 ran %d attempts, want 3", n)
	}
	if !strings.Contains(err.Error(), "run 0") {
		t.Errorf("error lost the run prefix: %v", err)
	}
}

// TestPanicNotRetried pins that a recovered panic fails its run on the
// first attempt: the simulated execution is deterministic, so a retry
// would only panic again.
func TestPanicNotRetried(t *testing.T) {
	var attempts atomic.Int64
	m := telemetry.NewRegistry()
	probe := sinkProbe(func(int64) { panic("collector bug") })
	rep, err := Verify(Workload{
		Name:   "panicky",
		Source: longWorkload,
		Setup: func(int, *sim.Machine, *asm.Program) error {
			attempts.Add(1)
			return nil
		},
	}, Options{
		Config:  sim.SmallBoom(),
		Retry:   RetryPolicy{Max: 3, BaseDelay: 100 * time.Microsecond},
		Probe:   probe,
		Metrics: m,
	})
	if rep != nil || err == nil {
		t.Fatalf("want the panic surfaced, got rep=%v err=%v", rep, err)
	}
	if errClass(err) != "panic" {
		t.Errorf("errClass = %q want panic (err: %v)", errClass(err), err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("panicking run consumed %d attempts, want 1", n)
	}
	if got := probe.Snapshot().Retries; got != 0 {
		t.Errorf("probe retries = %d want 0", got)
	}
	if got := m.Counter("verify_retries_total").Value(); got != 0 {
		t.Errorf("verify_retries_total = %d want 0", got)
	}
	if got := m.Counter("verify_run_panics_total").Value(); got != 1 {
		t.Errorf("verify_run_panics_total = %d want 1", got)
	}
}

func TestPanicWithoutRetrySurfacesPanicError(t *testing.T) {
	_, err := Verify(Workload{Name: "panicky", Source: longWorkload}, Options{
		Config: sim.SmallBoom(),
		Probe:  sinkProbe(func(int64) { panic("boom") }),
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError lost value or stack: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("PanicError message %q lacks the panic value", pe.Error())
	}
}

func TestRunTimeoutIsTransient(t *testing.T) {
	m := telemetry.NewRegistry()
	// The first attempt blocks past its whole deadline; the retry has
	// the same generous budget and finishes well inside it.
	const timeout = time.Second
	rep, err := Verify(Workload{Name: "slowstart", Source: longWorkload}, Options{
		Config:     sim.SmallBoom(),
		RunTimeout: timeout,
		Retry:      fastRetry,
		Probe:      sinkProbe(wedgeFirst(1, timeout)),
		Metrics:    m,
	})
	if err != nil {
		t.Fatalf("deadline expiry was not retried: %v", err)
	}
	if rep.Retries != 1 {
		t.Errorf("Retries = %d want 1", rep.Retries)
	}
	if got := m.Counter("verify_run_timeouts_total").Value(); got != 1 {
		t.Errorf("verify_run_timeouts_total = %d want 1", got)
	}
}

func TestWatchdogStallIsTransient(t *testing.T) {
	m := telemetry.NewRegistry()
	rep, err := Verify(Workload{Name: "stall", Source: longWorkload}, Options{
		Config:   sim.SmallBoom(),
		Watchdog: 50 * time.Millisecond,
		Retry:    fastRetry,
		Probe:    sinkProbe(wedgeFirst(1, 500*time.Millisecond)),
		Metrics:  m,
	})
	if err != nil {
		t.Fatalf("watchdog stall was not retried: %v", err)
	}
	if rep.Retries != 1 {
		t.Errorf("Retries = %d want 1", rep.Retries)
	}
	if got := m.Counter("verify_run_stalls_total").Value(); got != 1 {
		t.Errorf("verify_run_stalls_total = %d want 1", got)
	}
}

func TestRetrySpansRecorded(t *testing.T) {
	var sink bytes.Buffer
	_, err := Verify(Workload{Name: "flaky", Source: longWorkload}, Options{
		Config:    sim.SmallBoom(),
		Watchdog:  50 * time.Millisecond,
		Retry:     fastRetry,
		Probe:     sinkProbe(wedgeFirst(1, 500*time.Millisecond)),
		TraceSink: &sink,
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	var runID uint64
	var retries []struct {
		Parent uint64
		Detail string
	}
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var span struct {
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		switch span.Name {
		case "run":
			runID = span.ID
		case "run.retry":
			retries = append(retries, struct {
				Parent uint64
				Detail string
			}{span.Parent, span.Detail})
		}
	}
	if len(retries) != 1 {
		t.Fatalf("want 1 run.retry span, got %d", len(retries))
	}
	if retries[0].Parent != runID {
		t.Errorf("run.retry parented under %d, want run span %d", retries[0].Parent, runID)
	}
	if !strings.Contains(retries[0].Detail, "stall") {
		t.Errorf("run.retry detail %q lacks the failure class", retries[0].Detail)
	}
}

func TestBackoffWindows(t *testing.T) {
	p := RetryPolicy{Max: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	// u=1 probes the upper edge of each jitter window: 10ms, 20ms, then
	// capped at 35ms.
	for n, want := range map[int]time.Duration{
		0: 10 * time.Millisecond,
		1: 20 * time.Millisecond,
		2: 35 * time.Millisecond,
		9: 35 * time.Millisecond,
	} {
		if got := p.backoffAt(n, 1); got != want {
			t.Errorf("backoffAt(%d, 1) = %v want %v", n, got, want)
		}
	}
	if got := p.backoffAt(3, 0); got != 0 {
		t.Errorf("backoffAt(_, 0) = %v want 0 (full jitter reaches zero)", got)
	}
	if (RetryPolicy{}).backoffAt(2, 1) != 0 {
		t.Error("zero policy must not sleep")
	}
	// Verify jittered draws stay inside the window.
	for i := 0; i < 100; i++ {
		if d := p.Backoff(1); d < 0 || d >= 20*time.Millisecond {
			t.Fatalf("Backoff(1) = %v outside [0, 20ms)", d)
		}
	}
}

func TestFaultToleranceOptionValidation(t *testing.T) {
	for name, opts := range map[string]Options{
		"timeout":  {RunTimeout: -time.Second},
		"watchdog": {Watchdog: -time.Second},
		"retryMax": {Retry: RetryPolicy{Max: -1}},
		"retryDur": {Retry: RetryPolicy{Max: 1, BaseDelay: -time.Second}},
	} {
		if _, err := Verify(Workload{Name: "neg", Source: smokeWorkload}, opts); err == nil {
			t.Errorf("%s: negative option accepted", name)
		}
	}
	// Defaults fill in only when retrying is enabled.
	o, err := Options{Retry: RetryPolicy{Max: 2}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Retry.BaseDelay != 50*time.Millisecond || o.Retry.MaxDelay != 2*time.Second {
		t.Errorf("retry defaults not filled: %+v", o.Retry)
	}
	o, err = Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Retry.BaseDelay != 0 {
		t.Errorf("disabled retry grew a delay: %+v", o.Retry)
	}
}

func leakyNamesOf(rep *Report) string {
	names := make([]string, 0, len(rep.Units))
	for _, u := range rep.LeakyUnits() {
		names = append(names, u.Unit.String())
	}
	return strings.Join(names, ",")
}
