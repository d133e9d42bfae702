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
	d.Run(context.Background(), points, keys, onResult)

	if len(execs) != 3 {
		t.Fatalf("executed keys = %v, want 3 unique", execs)
	}
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want 1", key, n)
		}
	}
	for i, res := range results {
		if res.Key != keys[i] || res.Err != "" {
			t.Errorf("result %d = %+v, want a verdict for key %q", i, res, keys[i])
		}
	}
}

// TestDispatchReassignsOnWorkerDeath: a leg whose worker dies mid-flight
// fails, and the point moves to the next-ranked worker without
// degrading.
func TestDispatchReassignsOnWorkerDeath(t *testing.T) {
	m := testMembers("w1", "w2")
	firstURL := make(chan string, 1)
	var calls atomic.Int64
	d := &Dispatcher{
		Members: m,
		Exec: execFunc(func(ctx context.Context, url string, _ Point, key string) (PointResult, error) {
			if calls.Add(1) == 1 {
				// First leg: report who we are, then hang until the death
				// watch cancels us.
				firstURL <- url
				<-ctx.Done()
				return PointResult{}, ctx.Err()
			}
			return okResult(key), nil
		}),
		Local: localFail(t),
	}
	var reassigns atomic.Int64
	d.OnReassign = func(key, from, to string) { reassigns.Add(1) }

	// Kill whichever worker won the rendezvous, once its leg is in
	// flight.
	go func() {
		url := <-firstURL
		m.MarkDead(strings.TrimPrefix(url, "http://"))
	}()

	results, onResult := collectResults(1)
	d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if reassigns.Load() != 1 {
		t.Errorf("OnReassign fired %d times, want 1", reassigns.Load())
	}
	res := results[0]
	if res.Err != "" || res.Degraded || res.Worker == "" {
		t.Fatalf("result = %+v, want a healthy remote verdict", res)
	}
}

// TestDispatchDegradesWhenRankExhausted: a worker that fails a point is
// not asked again for it. With one worker whose every call is a
// transport error, the point makes exactly one remote call and then
// runs locally with the Degraded flag, instead of failing.
func TestDispatchDegradesWhenRankExhausted(t *testing.T) {
	var calls atomic.Int64
	d := &Dispatcher{
		Members: testMembers("w1"),
		Exec: execFunc(func(_ context.Context, _ string, _ Point, _ string) (PointResult, error) {
			calls.Add(1)
			return PointResult{}, fmt.Errorf("connection refused")
		}),
		Local: func(_ context.Context, _ Point, key string) PointResult {
			return okResult(key)
		},
	}

	results, onResult := collectResults(1)
	d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if got := calls.Load(); got != 1 {
		t.Errorf("remote calls = %d, want 1", got)
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
	d.Run(context.Background(), make([]Point, 2), []string{"key-a", "key-b"}, onResult)
	for i, res := range results {
		if !res.Degraded || res.Err != "" {
			t.Errorf("result %d = %+v, want degraded success", i, res)
		}
	}
}

// TestDispatchHedgesStragglers: a leg outliving the hedge threshold
// starts a leg on the next-ranked worker, and the first result wins.
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
	d.Run(context.Background(), []Point{{}}, []string{"key-x"}, onResult)

	if hedges.Load() != 1 {
		t.Fatalf("OnHedge fired %d times, want one hedge", hedges.Load())
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
	d.Run(ctx, []Point{{}}, []string{"key-x"}, onResult)
	if !strings.Contains(results[0].Err, "dispatch cancelled") {
		t.Fatalf("result error = %q, want a dispatch-cancelled failure", results[0].Err)
	}
}
