package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d want 5", got)
	}
	if r.Counter("runs_total") != c {
		t.Error("counter lookup must return the same instance")
	}

	g := r.Gauge("ipc")
	g.Set(1.5)
	g.Add(0.25)
	if got := g.Value(); got != 1.75 {
		t.Errorf("gauge = %g want 1.75", got)
	}
	g.SetMax(1.0)
	if got := g.Value(); got != 1.75 {
		t.Errorf("SetMax lowered the gauge: %g", got)
	}
	g.SetMax(3.0)
	if got := g.Value(); got != 3.0 {
		t.Errorf("SetMax = %g want 3", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 2, 3, 7, 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 33.5 {
		t.Errorf("sum = %g", h.Sum())
	}
	if h.Min() != 0.5 || h.Max() != 20 {
		t.Errorf("min/max = %g/%g", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 = %g want within [2,4]", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("p100 = %g want 20 (clamped to max)", q)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || len(counts) != 5 {
		t.Fatalf("buckets shape: %v %v", bounds, counts)
	}
	if counts[4] != 1 { // the 20 observation overflows
		t.Errorf("overflow bucket = %d want 1", counts[4])
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewRegistry().Histogram("empty", LatencyBuckets())
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.95) != 0 {
		t.Error("empty histogram must render zeros")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(float64(i))
				r.Histogram("h", []float64{10, 100, 1000}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Errorf("gauge max = %g want 999", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d want 8000", got)
	}
}

func TestRenderText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_cycles_total").Add(1234)
	r.Gauge("sim_ipc").Set(1.5)
	r.Histogram("run_seconds", LatencyBuckets()).Observe(0.25)
	out := r.RenderText()
	for _, want := range []string{
		"# TYPE sim_cycles_total counter", "sim_cycles_total 1234",
		"# TYPE sim_ipc gauge", "sim_ipc 1.5",
		"# TYPE run_seconds histogram", `run_seconds_bucket{le="+Inf"} 1`,
		"run_seconds_sum 0.25", "run_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderText missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_cycles_total").Add(1234)
	r.Histogram("run_seconds", LatencyBuckets()).Observe(0.25)
	out := r.RenderSummary()
	for _, want := range []string{"sim_cycles_total", "1234", "run_seconds", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderSummary missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(2)
	r.Histogram("c", []float64{1}).Observe(0.5)
	data, err := r.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counters["a"] != 7 || snap.Gauges["b"] != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if h := snap.Histograms["c"]; h.Count != 1 || h.Sum != 0.5 {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Reset()
	if r.Counter("x").Value() != 0 {
		t.Error("reset did not clear counters")
	}
}
