package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/telemetry"
)

// longWorkload is leakWorkload stretched to ~1600 cycles on SmallBoom,
// past the simulator's 1024-cycle progress interval, so a RunProbe
// cycle sink runs in the middle of every run.
var longWorkload = strings.Replace(leakWorkload, "li   s2, 40", "li   s2, 200", 1)

// sinkProbe returns a probe whose cycle sink calls fn with the 1-based
// count of sink calls so far. The sink runs on the simulation goroutine
// every 1024 simulated cycles, so fn can wedge or crash the run that is
// executing.
func sinkProbe(fn func(call int64)) *RunProbe {
	p := NewRunProbe()
	var calls atomic.Int64
	p.SetCycleSink(func(int64) { fn(calls.Add(1)) })
	return p
}

// countSetups returns a Setup that counts its calls: one per executed
// run, so it counts the attempts a verification makes.
func countSetups(n *atomic.Int64) func(int, *sim.Machine, *asm.Program) error {
	return func(int, *sim.Machine, *asm.Program) error {
		n.Add(1)
		return nil
	}
}

// checkFailureCounters asserts that exactly the want failure counter
// was bumped, once, and the other classes stayed at zero.
func checkFailureCounters(t *testing.T, m *telemetry.Registry, want string) {
	t.Helper()
	for _, class := range []string{"panic", "timeout", "error"} {
		name := "verify_run_" + class + "s_total"
		var wantN uint64
		if class == want {
			wantN = 1
		}
		if got := m.Counter(name).Value(); got != wantN {
			t.Errorf("%s = %d want %d", name, got, wantN)
		}
	}
}

func TestUnmarkedErrorNotRetried(t *testing.T) {
	var attempts atomic.Int64
	m := telemetry.NewRegistry()
	_, err := Verify(Workload{
		Name:   "plain",
		Source: smokeWorkload,
		Setup: func(int, *sim.Machine, *asm.Program) error {
			attempts.Add(1)
			return errors.New("unclassified")
		},
	}, Options{Config: sim.SmallBoom(), Runs: 1, Metrics: m})
	if err == nil || !strings.Contains(err.Error(), "unclassified") {
		t.Fatalf("want the unclassified error, got %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("setup error consumed %d attempts, want 1", n)
	}
	if errClass(err) != "error" {
		t.Errorf("errClass = %q want error (err: %v)", errClass(err), err)
	}
	checkFailureCounters(t, m, "error")
}

// TestPanicNotRetried pins that a recovered panic fails the
// verification on its run's only attempt.
func TestPanicNotRetried(t *testing.T) {
	var attempts atomic.Int64
	m := telemetry.NewRegistry()
	rep, err := Verify(Workload{
		Name:   "panicky",
		Source: longWorkload,
		Setup:  countSetups(&attempts),
	}, Options{
		Config:  sim.SmallBoom(),
		Runs:    1,
		Probe:   sinkProbe(func(int64) { panic("collector bug") }),
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
	checkFailureCounters(t, m, "panic")
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

// TestRunTimeoutIsTransient pins that an expired RunTimeout, a host
// failure rather than a property of the simulated execution, still
// fails the verification on its run's only attempt.
func TestRunTimeoutIsTransient(t *testing.T) {
	var attempts atomic.Int64
	m := telemetry.NewRegistry()
	const timeout = 50 * time.Millisecond
	// The sink's first call holds the run loop well past its deadline,
	// which the loop observes as soon as the call returns.
	rep, err := Verify(Workload{
		Name:   "slowstart",
		Source: longWorkload,
		Setup:  countSetups(&attempts),
	}, Options{
		Config:     sim.SmallBoom(),
		Runs:       1,
		RunTimeout: timeout,
		Probe: sinkProbe(func(call int64) {
			if call == 1 {
				time.Sleep(10 * timeout)
			}
		}),
		Metrics: m,
	})
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the deadline expiry surfaced, got rep=%v err=%v", rep, err)
	}
	if !strings.Contains(err.Error(), "run 0") {
		t.Errorf("error lost the run prefix: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("timed-out run consumed %d attempts, want 1", n)
	}
	checkFailureCounters(t, m, "timeout")
}

func TestFaultToleranceOptionValidation(t *testing.T) {
	_, err := Verify(Workload{Name: "neg", Source: smokeWorkload},
		Options{RunTimeout: -time.Second})
	if err == nil {
		t.Error("negative RunTimeout accepted")
	}
}
