package core_test

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// TestRetryInvisibleToDigest pins that a retried attempt leaves no trace
// in the verdict: a verification whose run 0 stalls once under the
// watchdog and is retried renders a report digest byte-identical to an
// undisturbed verification's.
func TestRetryInvisibleToDigest(t *testing.T) {
	w, err := workloads.ByName("ME-NAIVE") // ~3400 cycles a run on SmallBoom
	if err != nil {
		t.Fatal(err)
	}
	digest := func(opts core.Options) ([]byte, *core.Report) {
		t.Helper()
		opts.Config = sim.SmallBoom()
		opts.Runs = 3
		rep, err := core.Verify(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := report.BuildDigest(rep)
		if err != nil {
			t.Fatal(err)
		}
		js, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep
	}
	want, base := digest(core.Options{})
	if !base.AnyLeak() {
		t.Fatal("baseline found no leaks; the comparison is vacuous")
	}

	// The probe's cycle sink runs on the simulation goroutine every 1024
	// cycles; blocking its first call wedges run 0's first attempt past
	// the watchdog.
	probe := core.NewRunProbe()
	var calls atomic.Int64
	probe.SetCycleSink(func(int64) {
		if calls.Add(1) == 1 {
			time.Sleep(500 * time.Millisecond)
		}
	})
	got, rep := digest(core.Options{
		Watchdog: 50 * time.Millisecond,
		Retry:    core.RetryPolicy{Max: 3, BaseDelay: time.Millisecond},
		Probe:    probe,
	})
	if rep.Retries != 1 {
		t.Fatalf("Retries = %d want 1: run 0 did not stall exactly once", rep.Retries)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("retried digest differs from the undisturbed one:\n got  %s\n want %s", got, want)
	}
}
