package trace_test

import (
	"reflect"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// TestSamplingPurity pins that observing a run never changes it: for
// every catalogue workload at seed 0, on every walkConfigs
// configuration, a run with a collector tracking every unit, a flight
// recorder and a cycle observer attached returns a sim.Result equal
// field for field to a bare run's. Sampling reads core state that only
// it uses, the change marks and the lazily rebuilt ROB-PC row, so every
// configuration whose paths move them is covered.
func TestSamplingPurity(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			for _, c := range walkConfigs() {
				t.Run(c.name, func(t *testing.T) { checkPurity(t, name, c.cfg) })
			}
		})
	}
}

func checkPurity(t *testing.T, name string, cfg sim.Config) {
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	run := func(instrument func(*sim.Machine)) sim.Result {
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
		instrument(m)
		res, err := m.Run(20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(func(*sim.Machine) {})
	var observed int64
	sampled := run(func(m *sim.Machine) {
		m.SetTracer(trace.NewCollector())
		m.SetFlightRecorder(sim.NewFlightRecorder(64))
		m.SetCycleObserver(func(d int64) { observed += d })
	})
	if !reflect.DeepEqual(sampled, bare) {
		t.Errorf("sampling changed execution:\n sampled %+v\n bare    %+v", sampled, bare)
	}
	if observed != bare.Cycles {
		t.Errorf("cycle observer saw %d cycles, run took %d", observed, bare.Cycles)
	}
}
