package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microsampler/internal/core"
)

// The chaos test (the robustness acceptance check for the cluster
// layer): a seeded fault schedule kills, hangs, slows and flakes
// workers mid-batch, and the final verdicts must still be
// byte-identical to a fault-free single-node run. The verdict is a pure
// function of the point, so whatever path a point takes — reassignment
// after a worker death, a hedged duplicate, retry after a transient, or
// degradation to local execution — the answer may not change.

// chaosVerdict is the pure per-point verdict both the workers and the
// local fallback compute: deterministic in the key alone.
func chaosVerdict(key string) PointResult {
	var sum int
	for _, b := range []byte(key) {
		sum += int(b)
	}
	res := PointResult{
		Key: key,
		Summary: core.Summary{
			Leaky:      sum%2 == 1,
			Iterations: 64 + sum%17,
			SimCycles:  int64(1000 + sum),
		},
		Digest: []byte(`{"workload":"chaos","key":"` + key + `"}`),
	}
	if res.Leaky {
		res.LeakyUnits = []string{"TAGE-PRED"}
	}
	return res
}

// chaosFault is the failure mode one dispatch attempt is given.
type chaosFault uint8

const (
	faultNone      chaosFault = iota
	faultTransient            // transport flake: retried with backoff
	faultKill                 // worker crash: killed mid-batch, later revived
	faultHang                 // stuck worker: shard timeout, then retry
	faultSlow                 // straggler: exercises hedged duplicates
)

// chaosMix is the per-attempt fault mix, drawn in this order against
// one uniform variate; the remaining 50% of attempts are fault-free.
var chaosMix = []struct {
	p     float64
	fault chaosFault
}{
	{0.15, faultTransient},
	{0.10, faultKill},
	{0.10, faultHang},
	{0.15, faultSlow},
}

// splitmix64 is the avalanche mixer behind the fault schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosPlan draws the fault for one (point, attempt) as a pure function
// of the seed, so a failing seed replays identically.
func chaosPlan(seed uint64, point, attempt int) chaosFault {
	h := splitmix64(seed ^ splitmix64(uint64(point)<<32|uint64(uint32(attempt))))
	u := float64(h>>11) / (1 << 53) // uniform in [0,1)
	for _, c := range chaosMix {
		if u < c.p {
			return c.fault
		}
		u -= c.p
	}
	return faultNone
}

func TestChaosClusterMatchesSingleNode(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSeed(t, seed)
		})
	}
}

func runChaosSeed(t *testing.T, seed uint64) {
	const npoints = 24
	points := make([]Point, npoints)
	keys := make([]string, npoints)
	keyIdx := make(map[string]int, npoints)
	for i := range points {
		keys[i] = fmt.Sprintf("chaos-key-%02d", i)
		keyIdx[keys[i]] = i
	}

	// The single-node ground truth: what a fault-free local run answers.
	expected := make([][]byte, npoints)
	for i, key := range keys {
		data, err := json.Marshal(chaosVerdict(key).Verdict())
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = data
	}

	// Three workers; faults are drawn per (point, attempt) from the
	// seeded schedule, so a failing seed replays identically.
	workers := map[string]string{
		"http://w1": "w1",
		"http://w2": "w2",
		"http://w3": "w3",
	}
	m := NewMembership(time.Hour)
	for url, id := range workers {
		m.Register(id, url)
	}
	var attempts [npoints]atomic.Int64
	var mu sync.Mutex // guards MarkDead/Register pairing against the revive timers
	exec := execFunc(func(ctx context.Context, url string, _ Point, key string) (PointResult, error) {
		idx := keyIdx[key]
		attempt := int(attempts[idx].Add(1)) - 1
		switch chaosPlan(seed, idx, attempt) {
		case faultTransient:
			return PointResult{}, fmt.Errorf("chaos: injected transient (point %d attempt %d)", idx, attempt)
		case faultKill:
			// Model a worker SIGKILL mid-batch: the worker drops off the
			// membership (its in-flight attempts turn into ErrWorkerLost and
			// reassign) and rejoins shortly after, as a restarted worker's
			// agent would.
			id := workers[url]
			mu.Lock()
			m.MarkDead(id)
			mu.Unlock()
			time.AfterFunc(10*time.Millisecond, func() {
				mu.Lock()
				m.Register(id, url)
				mu.Unlock()
			})
			return PointResult{}, fmt.Errorf("chaos: worker %s killed (point %d attempt %d)", id, idx, attempt)
		case faultHang:
			<-ctx.Done()
			return PointResult{}, ctx.Err()
		case faultSlow:
			select {
			case <-time.After(8 * time.Millisecond):
			case <-ctx.Done():
				return PointResult{}, ctx.Err()
			}
		}
		return chaosVerdict(key), nil
	})

	d := &Dispatcher{
		Members:      m,
		Exec:         exec,
		Local:        func(_ context.Context, _ Point, key string) PointResult { return chaosVerdict(key) },
		Retry:        core.RetryPolicy{Max: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		ShardTimeout: 30 * time.Millisecond, // converts hangs into retryable timeouts fast
		HedgeAfter:   10 * time.Millisecond,
		EWMA:         &LatencyEWMA{},
		DeathPoll:    2 * time.Millisecond,
	}

	results := make([]PointResult, npoints)
	var rmu sync.Mutex
	stats := d.Run(context.Background(), points, keys, func(idx int, res PointResult) {
		rmu.Lock()
		results[idx] = res
		rmu.Unlock()
	})

	if stats.Points != npoints || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want %d points and no failures", stats, npoints)
	}
	for i, res := range results {
		got, err := json.Marshal(res.Verdict())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, expected[i]) {
			t.Errorf("point %d verdict diverged under chaos:\n got  %s\n want %s", i, got, expected[i])
		}
	}
	t.Logf("seed %d: reassigned=%d hedged=%d degraded=%d",
		seed, stats.Reassigned, stats.Hedged, stats.Degraded)
}
