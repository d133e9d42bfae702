package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"microsampler/internal/asm"
)

// newLoaded builds a machine with src loaded, without running it.
func newLoaded(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	return m
}

// longLoop busy-loops for far more cycles than any test budget.
const longLoop = `
_start:
	li   t0, 100000000
loop:
	addi t0, t0, -1
	bnez t0, loop
	li a0, 0
` + exitStub

const quickExit = `
_start:
	li a0, 7
` + exitStub

func TestRunContextCancelledBeforeStart(t *testing.T) {
	m := newLoaded(t, SmallBoom(), longLoop)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.RunContext(ctx, 5_000_000, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunContextDeadlineAbortsMidRun(t *testing.T) {
	m := newLoaded(t, SmallBoom(), longLoop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := m.RunContext(ctx, 1<<60, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("deadline took %v to land", time.Since(start))
	}
	if res.Cycles == 0 {
		t.Error("abort result should carry the partial cycle count")
	}
}

func TestRunContextCompletesNormally(t *testing.T) {
	m := newLoaded(t, SmallBoom(), quickExit)
	res, err := m.RunContext(context.Background(), 5_000_000, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ExitCode != 7 {
		t.Errorf("exit = %d want 7", res.ExitCode)
	}
}

func TestWatchdogAbortsBlockedHook(t *testing.T) {
	m := newLoaded(t, SmallBoom(), longLoop)
	var seen int64
	m.SetCycleObserver(func(delta int64) {
		seen += delta
		if seen >= 2048 {
			// Model an observer wedged on stuck I/O: it holds the run
			// loop well past the stall window.
			time.Sleep(500 * time.Millisecond)
		}
	})
	start := time.Now()
	res, err := m.RunContext(context.Background(), 5_000_000, 50*time.Millisecond)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	if res.Cycles != 2048 {
		t.Errorf("stalled run stopped at cycle %d, want 2048 (the blocked flush)", res.Cycles)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("watchdog took %v", d)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	m := newLoaded(t, SmallBoom(), `
_start:
	li   t0, 200000
loop:
	addi t0, t0, -1
	bnez t0, loop
	li a0, 3
`+exitStub)
	res, err := m.RunContext(context.Background(), 5_000_000, 250*time.Millisecond)
	if err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if res.ExitCode != 3 {
		t.Errorf("exit = %d want 3", res.ExitCode)
	}
}

func TestRunContextMaxCyclesStillEnforced(t *testing.T) {
	m := newLoaded(t, SmallBoom(), longLoop)
	_, err := m.RunContext(context.Background(), 10_000, 0)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("want ErrMaxCycles, got %v", err)
	}
}

// TestRunMatchesRunContext pins Run as a thin RunContext wrapper: the
// same program yields identical results through both entry points.
func TestRunMatchesRunContext(t *testing.T) {
	a := newLoaded(t, SmallBoom(), quickExit)
	resA, errA := a.Run(5_000_000)
	b := newLoaded(t, SmallBoom(), quickExit)
	resB, errB := b.RunContext(context.Background(), 5_000_000, 0)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v %v", errA, errB)
	}
	if resA.Cycles != resB.Cycles || resA.ExitCode != resB.ExitCode ||
		resA.Instructions != resB.Instructions {
		t.Errorf("Run/RunContext diverge: %+v vs %+v", resA, resB)
	}
}
