package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/core"
)

// execFunc adapts a closure to the Executor interface for dispatcher
// tests.
type execFunc func(ctx context.Context, workerURL string, p Point, key string) (PointResult, error)

func (f execFunc) Execute(ctx context.Context, workerURL string, p Point, key string) (PointResult, error) {
	return f(ctx, workerURL, p, key)
}

// testMembers registers the given workers under a TTL long enough that
// only explicit MarkDead calls kill them.
func testMembers(ids ...string) *Membership {
	m := NewMembership(time.Hour)
	for _, id := range ids {
		m.Register(id, "http://"+id)
	}
	return m
}

func okResult(key string) PointResult {
	return PointResult{Key: key, Summary: core.Summary{Leaky: true, LeakyUnits: []string{"TAGE-PRED"}}}
}

// localFail is a Local fallback for tests that must never degrade.
func localFail(t *testing.T) func(context.Context, Point, string) PointResult {
	return func(_ context.Context, _ Point, key string) PointResult {
		t.Errorf("point %s unexpectedly degraded to local execution", key)
		return PointResult{Key: key, Err: "unexpected degrade"}
	}
}

func collectResults(n int) ([]PointResult, func(int, PointResult)) {
	results := make([]PointResult, n)
	var mu sync.Mutex
	return results, func(idx int, res PointResult) {
		mu.Lock()
		results[idx] = res
		mu.Unlock()
	}
}

// TestDispatchCoalescesByKey: points sharing a cache key fold onto one
// execution — the exactly-once-per-verdict guarantee — and every index
// still receives its result.
func TestDispatchCoalescesByKey(t *testing.T) {
	keys := []string{"key-a", "key-b", "key-a", "key-a", "key-b", "key-c"}
	points := make([]Point, len(keys))

	var mu sync.Mutex
	execs := map[string]int{}
	d := &Dispatcher{
		Members: testMembers("w1", "w2"),
		Exec: execFunc(func(_ context.Context, _ string, _ Point, key string) (PointResult, error) {
			mu.Lock()
			execs[key]++
			mu.Unlock()
			return okResult(key), nil
		}),
		Local: localFail(t),
	}
	results, onResult := collectResults(len(keys))
	stats := d.Run(context.Background(), points, keys, onResult)

	if stats.Points != 6 || stats.Unique != 3 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want 6 points / 3 unique / 0 failed", stats)
	}
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want 1", key, n)
		}
	}
	for i, res := range results {
		if res.Key != keys[i] {
			t.Errorf("result %d carries key %q, want %q", i, res.Key, keys[i])
		}
	}
}

// TestDispatchReassignsOnWorkerDeath: an attempt whose worker dies
// mid-flight moves to the next-ranked worker without consuming the
// retry budget or degrading.
func TestDispatchReassignsOnWorkerDeath(t *testing.T) {
	m := testMembers("w1", "w2")
	firstURL := make(chan string, 1)
	var calls atomic.Int64
	d := &Dispatcher{
		Members: m,
		Exec: execFunc(func(ctx context.Context, url string, _ Point, key string) (PointResult, error) {
			if calls.Add(1) == 1 {
				// First attempt: report who we are, then hang until the
				// death watch cancels us.
				firstURL <- url
				<-ctx.Done()
				return PointResult{}, ctx.Err()
			}
			return okResult(key), nil
		}),
		Local: localFail(t),
		// No remote retries budgeted: only the lost-worker path (which is
		// free) can produce the second attempt.
		Retry:     RetryPolicy{Max: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		DeathPoll: 2 * time.Millisecond,
	}
	var reassigns atomic.Int64
	d.OnReassign = func(key, from, to string) { reassigns.Add(1) }

	// Kill whichever worker won the rendezvous, once its attempt is
	// in flight.
	go func() {
		url := <-firstURL
		m.MarkDead(strings.TrimPrefix(url, "http://"))
	}()

	results, onResult := collectResults(1)
	stats := d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if stats.Reassigned != 1 || stats.Degraded != 0 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want exactly one reassignment", stats)
	}
	if reassigns.Load() != 1 {
		t.Errorf("OnReassign fired %d times, want 1", reassigns.Load())
	}
	res := results[0]
	if res.Err != "" || res.Degraded || res.Worker == "" {
		t.Fatalf("result = %+v, want a healthy remote verdict", res)
	}
}

// TestDispatchDegradesWhenRetriesExhaust: persistent transport failures
// consume the full-jitter retry budget and then fall back to local
// execution with the Degraded flag, instead of failing the point.
func TestDispatchDegradesWhenRetriesExhaust(t *testing.T) {
	var attempts atomic.Int64
	d := &Dispatcher{
		Members: testMembers("w1"),
		Exec: execFunc(func(_ context.Context, _ string, _ Point, _ string) (PointResult, error) {
			attempts.Add(1)
			return PointResult{}, fmt.Errorf("connection refused")
		}),
		Local: func(_ context.Context, _ Point, key string) PointResult {
			return okResult(key)
		},
		Retry: RetryPolicy{Max: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}

	results, onResult := collectResults(1)
	stats := d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if got := attempts.Load(); got != 3 { // first + Max retries
		t.Errorf("remote attempts = %d, want 3", got)
	}
	if stats.Degraded != 1 {
		t.Errorf("stats = %+v, want one degrade", stats)
	}
	res := results[0]
	if !res.Degraded || res.Worker != "" || res.Err != "" {
		t.Fatalf("result = %+v, want a degraded local verdict", res)
	}
}

// TestDispatchDegradesWithNoWorkers: an empty healthy set goes straight
// to local execution — the zero-workers graceful-degradation path.
func TestDispatchDegradesWithNoWorkers(t *testing.T) {
	d := &Dispatcher{
		Members: NewMembership(time.Hour),
		Exec: execFunc(func(_ context.Context, _ string, _ Point, _ string) (PointResult, error) {
			t.Error("executor called with no healthy workers")
			return PointResult{}, fmt.Errorf("unreachable")
		}),
		Local: func(_ context.Context, _ Point, key string) PointResult {
			return okResult(key)
		},
	}
	results, onResult := collectResults(2)
	stats := d.Run(context.Background(), make([]Point, 2), []string{"key-a", "key-b"}, onResult)
	if stats.Degraded != 2 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want both points degraded", stats)
	}
	for i, res := range results {
		if !res.Degraded || res.Err != "" {
			t.Errorf("result %d = %+v, want degraded success", i, res)
		}
	}
}

// TestDispatchHedgesStragglers: an attempt outliving the hedge
// threshold gets a duplicate on the next-ranked worker, and the first
// result wins.
func TestDispatchHedgesStragglers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	d := &Dispatcher{
		Members: testMembers("w1", "w2"),
		Exec: execFunc(func(ctx context.Context, url string, _ Point, key string) (PointResult, error) {
			if calls.Add(1) == 1 {
				// The primary straggles until the test ends.
				select {
				case <-release:
				case <-ctx.Done():
				}
				return PointResult{}, fmt.Errorf("straggler cancelled")
			}
			res := okResult(key)
			res.Worker = "set-by-dispatcher" // overwritten with the real ID
			return res, nil
		}),
		Local:      localFail(t),
		HedgeAfter: 5 * time.Millisecond,
	}
	var hedges atomic.Int64
	d.OnHedge = func(key, primary, hedge string) {
		if primary == hedge {
			t.Errorf("hedged onto the primary worker %s", primary)
		}
		hedges.Add(1)
	}

	results, onResult := collectResults(1)
	stats := d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if stats.Hedged != 1 || hedges.Load() != 1 {
		t.Fatalf("stats = %+v (OnHedge %d), want one hedge", stats, hedges.Load())
	}
	res := results[0]
	if res.Err != "" || res.Worker == "" || res.Worker == "set-by-dispatcher" {
		t.Fatalf("result = %+v, want the hedge's verdict with its worker ID", res)
	}
}

// TestDispatchCancelledContext: a cancelled run fails the remaining
// points quickly instead of dispatching them.
func TestDispatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &Dispatcher{
		Members: testMembers("w1"),
		Exec: execFunc(func(_ context.Context, _ string, _ Point, key string) (PointResult, error) {
			return okResult(key), nil
		}),
		Local: func(_ context.Context, _ Point, key string) PointResult {
			return okResult(key)
		},
	}
	results, onResult := collectResults(1)
	stats := d.Run(ctx, []Point{{}}, []string{"key-x"}, onResult)
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v, want the point failed", stats)
	}
	if !strings.Contains(results[0].Err, "dispatch cancelled") {
		t.Fatalf("result error = %q, want a dispatch-cancelled failure", results[0].Err)
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
