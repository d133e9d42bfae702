package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"microsampler/internal/sim"
)

func TestRunProbeLifecycle(t *testing.T) {
	probe := NewRunProbe()
	var sunk atomic.Int64
	probe.SetCycleSink(func(d int64) { sunk.Add(d) })

	if s := probe.Snapshot(); s.Stage != StageIdle {
		t.Fatalf("fresh probe stage = %v want idle", s.Stage)
	}
	rep, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{Runs: 3, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	s := probe.Snapshot()
	if s.Stage != StageDone {
		t.Errorf("final stage = %v want done", s.Stage)
	}
	if s.RunsDone != 3 || s.TotalRuns != 3 {
		t.Errorf("runs = %d/%d want 3/3", s.RunsDone, s.TotalRuns)
	}
	if s.Cycles != rep.SimCycles {
		t.Errorf("probe cycles = %d, report sim cycles = %d", s.Cycles, rep.SimCycles)
	}
	if got := sunk.Load(); got != s.Cycles {
		t.Errorf("cycle sink saw %d, probe holds %d", got, s.Cycles)
	}
}

func TestRunProbeFailureStage(t *testing.T) {
	probe := NewRunProbe()
	_, err := Verify(Workload{Name: "fail", Source: `
_start:
	li a0, 3
	li a7, 93
	ecall
`}, Options{Probe: probe})
	if err == nil {
		t.Fatal("want error for nonzero exit")
	}
	if s := probe.Snapshot(); s.Stage != StageFailed {
		t.Errorf("stage after failure = %v want failed", s.Stage)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageIdle: "idle", StageAssemble: "assemble", StageSimulate: "simulate",
		StageMerge: "merge", StageStats: "stats", StageExtract: "extract",
		StageDone: "done", StageFailed: "failed", Stage(99): "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q want %q", s, s.String(), name)
		}
	}
}

func TestRunFailureCarriesFlightDump(t *testing.T) {
	// A run that exits nonzero must fail with a post-mortem attached
	// when the flight recorder is armed.
	_, err := Verify(Workload{Name: "fail", Source: `
_start:
	li t0, 50
spin:
	addi t0, t0, -1
	bnez t0, spin
	li a0, 9
	li a7, 93
	ecall
`}, Options{FlightRecorderFrames: 16})
	if err == nil {
		t.Fatal("want error for nonzero exit")
	}
	dump, ok := FlightDumpFromError(err)
	if !ok {
		t.Fatalf("no flight dump attached to %v", err)
	}
	if len(dump.Frames) != 16 {
		t.Errorf("dump frames = %d want 16", len(dump.Frames))
	}
	if dump.Cycle == 0 || dump.Frames[len(dump.Frames)-1].Cycle != dump.Cycle {
		t.Errorf("dump not anchored at final cycle: cycle=%d last frame=%d",
			dump.Cycle, dump.Frames[len(dump.Frames)-1].Cycle)
	}
	var rf *RunFailure
	if !errors.As(err, &rf) || rf.Run != 0 {
		t.Errorf("RunFailure metadata missing: %+v", rf)
	}
}

func TestRunFailureWrapsPanicWithDump(t *testing.T) {
	_, err := Verify(Workload{Name: "crash", Source: longWorkload}, Options{
		Config:               sim.SmallBoom(),
		FlightRecorderFrames: 32,
		Probe:                sinkProbe(func(int64) { panic("observer crash") }),
	})
	if err == nil {
		t.Fatal("want error from panicking cycle sink")
	}
	if errClass(err) != "panic" {
		t.Fatalf("errClass = %q want panic (err: %v)", errClass(err), err)
	}
	if _, ok := FlightDumpFromError(err); !ok {
		t.Errorf("panicking run carried no flight dump: %v", err)
	}
}

func TestFlightRecorderFramesValidation(t *testing.T) {
	_, err := Verify(Workload{Name: "smoke", Source: smokeWorkload},
		Options{FlightRecorderFrames: -1})
	if err == nil {
		t.Fatal("negative FlightRecorderFrames must be rejected")
	}
}

func TestProvenanceMergedAcrossRuns(t *testing.T) {
	rep, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 3, Warmup: NoWarmup, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Provenance) == 0 {
		t.Fatal("report carries no provenance")
	}
	n := len(rep.Iterations)
	for _, up := range rep.Provenance {
		for _, s := range up.Streams {
			if len(s.Iters) != len(s.Hashes) {
				t.Fatalf("%v key %#x: iters/hashes misaligned", up.Unit, s.Key)
			}
			for i, it := range s.Iters {
				if int(it) >= n || it < 0 {
					t.Fatalf("%v key %#x: iter %d out of range [0,%d)", up.Unit, s.Key, it, n)
				}
				if i > 0 && it <= s.Iters[i-1] {
					t.Fatalf("%v key %#x: merged iters not strictly increasing", up.Unit, s.Key)
				}
			}
		}
	}
	// Determinism: a second identical verification must merge to the
	// identical provenance.
	rep2, err := Verify(Workload{Name: "leak", Source: leakWorkload},
		Options{Runs: 3, Warmup: NoWarmup, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Provenance) != len(rep.Provenance) {
		t.Fatal("provenance unit count differs between identical verifications")
	}
	for i := range rep.Provenance {
		a, b := rep.Provenance[i], rep2.Provenance[i]
		if a.Unit != b.Unit || len(a.Streams) != len(b.Streams) {
			t.Fatalf("unit %v provenance shape differs", a.Unit)
		}
		for j := range a.Streams {
			sa, sb := a.Streams[j], b.Streams[j]
			if sa.Key != sb.Key || sa.Events != sb.Events || len(sa.Hashes) != len(sb.Hashes) {
				t.Fatalf("%v stream %d differs between identical runs", a.Unit, j)
			}
			for k := range sa.Hashes {
				if sa.Hashes[k] != sb.Hashes[k] || sa.Iters[k] != sb.Iters[k] {
					t.Fatalf("%v key %#x: stream content differs", a.Unit, sa.Key)
				}
			}
		}
	}
}
