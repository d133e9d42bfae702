package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrWorkerLost classifies a dispatch attempt aborted because the
// worker's heartbeat expired mid-flight. Lost attempts are reassigned
// immediately and do not consume the retry budget — the worker died,
// the point did not fail.
var ErrWorkerLost = errors.New("cluster: worker lost")

// Executor runs one point on one worker. Transport-level failures
// (connection refused, timeout, non-200) are returned as errors and
// drive retry/reassignment; a verdict-level failure travels inside
// PointResult.Err and is terminal.
type Executor interface {
	Execute(ctx context.Context, workerURL string, p Point, key string) (PointResult, error)
}

// RetryPolicy bounds the remote dispatch attempts of one point.
type RetryPolicy struct {
	// Max is the number of retries allowed per point beyond the first
	// attempt.
	Max int
	// BaseDelay seeds the exponential backoff: before retry n (0-based)
	// the dispatcher sleeps a full-jitter duration drawn uniformly from
	// [0, min(MaxDelay, BaseDelay·2ⁿ)).
	BaseDelay time.Duration
	// MaxDelay caps the backoff window (never below BaseDelay).
	MaxDelay time.Duration
}

// Backoff returns the full-jitter delay before retry n (0-based),
// drawn uniformly from [0, min(MaxDelay, BaseDelay·2ⁿ)).
func (p RetryPolicy) Backoff(n int) time.Duration {
	return p.backoffAt(n, rand.Float64())
}

// backoffAt is Backoff with the uniform jitter draw u injected; split
// out so tests can pin the draw.
func (p RetryPolicy) backoffAt(n int, u float64) time.Duration {
	window := p.BaseDelay
	for i := 0; i < n && window < p.MaxDelay; i++ {
		window *= 2
	}
	if window > p.MaxDelay {
		window = p.MaxDelay
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(u * float64(window))
}

// Stats summarises one Dispatcher.Run.
type Stats struct {
	// Points is the number of result slots delivered, Unique the number
	// of distinct cache keys actually dispatched (coalescing folds
	// duplicates onto one execution).
	Points, Unique int
	// Reassigned counts points moved to a different worker after a
	// failure or death; Hedged counts duplicate straggler dispatches;
	// Degraded counts points that fell back to local execution.
	Reassigned, Hedged, Degraded int
	// Failed counts points whose terminal result carries an error.
	Failed int
}

// Dispatcher shards points across the healthy worker set and drives
// them to terminal results. Zero-value fields default sanely; only
// Members, Exec and Local are required.
type Dispatcher struct {
	Members *Membership
	Exec    Executor
	// Local executes a point in-process — the degraded path when no
	// worker is healthy or the retry budget is exhausted. It must not be
	// nil and reports failures inside PointResult.Err, never by panic.
	Local func(ctx context.Context, p Point, key string) PointResult

	// Retry bounds remote attempts per point beyond the first, with
	// full-jitter exponential backoff between them (zero value defaults
	// to 3 retries, 100ms base, 2s cap).
	Retry RetryPolicy
	// ShardTimeout bounds one dispatch attempt (default 2m).
	ShardTimeout time.Duration
	// HedgeAfter is the straggler threshold: an attempt outliving it
	// gets a duplicate dispatch on the next-ranked worker, first result
	// wins. Zero or negative disables hedging.
	HedgeAfter time.Duration
	// DeathPoll is how often an in-flight attempt checks its worker's
	// liveness (default 25ms).
	DeathPoll time.Duration
	// Parallel bounds concurrently in-flight points (default 8).
	Parallel int

	Logger *slog.Logger

	// Event hooks, invoked synchronously from dispatch goroutines; nil
	// hooks are skipped. msd wires them to telemetry counters.
	OnReassign func(key, from, to string)
	OnHedge    func(key, primary, hedge string)

	reassigned, hedged, degraded atomic.Int64
}

// Run drives every point to a terminal result. keys is parallel to
// points (the caller computes canonical cache keys once); onResult is
// invoked exactly once per index, from dispatch goroutines, in
// completion order. Points sharing a key are coalesced onto one
// execution and each index still receives its own onResult call.
// Run blocks until every point is terminal; a cancelled ctx drains
// quickly by failing the remaining points with the context error.
func (d *Dispatcher) Run(ctx context.Context, points []Point, keys []string, onResult func(idx int, res PointResult)) Stats {
	if len(points) != len(keys) {
		panic("cluster: Dispatcher.Run: len(points) != len(keys)")
	}
	d.reassigned.Store(0)
	d.hedged.Store(0)
	d.degraded.Store(0)

	// Coalesce by key, preserving first-appearance order.
	type task struct {
		key     string
		point   Point
		indices []int
	}
	byKey := make(map[string]int, len(points))
	var tasks []task
	for i, k := range keys {
		if ti, ok := byKey[k]; ok {
			tasks[ti].indices = append(tasks[ti].indices, i)
			continue
		}
		byKey[k] = len(tasks)
		tasks = append(tasks, task{key: k, point: points[i], indices: []int{i}})
	}

	parallel := d.Parallel
	if parallel <= 0 {
		parallel = 8
	}
	sem := make(chan struct{}, parallel)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := d.runPoint(ctx, t.key, t.point)
			if res.Err != "" {
				failed.Add(int64(len(t.indices)))
			}
			for _, idx := range t.indices {
				onResult(idx, res)
			}
		}(t)
	}
	wg.Wait()

	return Stats{
		Points:     len(points),
		Unique:     len(tasks),
		Reassigned: int(d.reassigned.Load()),
		Hedged:     int(d.hedged.Load()),
		Degraded:   int(d.degraded.Load()),
		Failed:     int(failed.Load()),
	}
}

// retry returns the retry policy with the dispatcher's defaults
// applied.
func (d *Dispatcher) retry() RetryPolicy {
	p := d.Retry
	if p.Max <= 0 {
		p.Max = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// backoff sleeps the full-jitter delay before retry n (0-based),
// honouring ctx.
func backoff(ctx context.Context, p RetryPolicy, n int) {
	d := p.Backoff(n)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runPoint drives one unique point to a terminal result: rendezvous
// pick, hedged attempt, and on failure either a backoff retry (worker
// still healthy — transport flake) or an immediate reassignment
// (worker died). Exhausting the retry budget, like an empty healthy
// set, degrades to local execution rather than failing the point.
func (d *Dispatcher) runPoint(ctx context.Context, key string, p Point) PointResult {
	policy := d.retry()
	tried := make(map[string]bool)
	failures := 0
	last := ""
	for {
		if err := ctx.Err(); err != nil {
			return PointResult{Key: key, Err: fmt.Sprintf("dispatch cancelled: %v", err)}
		}
		worker, ok := d.pick(key, tried)
		if !ok {
			return d.degrade(ctx, key, p, "no healthy workers")
		}
		if last != "" && worker.ID != last {
			d.reassigned.Add(1)
			if d.OnReassign != nil {
				d.OnReassign(key, last, worker.ID)
			}
			d.logf("point reassigned", "key", short(key), "from", last, "to", worker.ID)
		}
		last = worker.ID

		res, err := d.attempt(ctx, key, p, worker)
		if err == nil {
			return res
		}
		tried[worker.ID] = true
		if errors.Is(err, ErrWorkerLost) {
			// The worker died under the attempt: reassign immediately,
			// without charging the retry budget or backing off — the
			// point did nothing wrong.
			d.logf("worker lost mid-dispatch", "key", short(key), "worker", worker.ID)
			continue
		}
		failures++
		if failures > policy.Max {
			return d.degrade(ctx, key, p, fmt.Sprintf("retries exhausted: %v", err))
		}
		d.logf("dispatch attempt failed", "key", short(key), "worker", worker.ID,
			"attempt", failures, "err", err)
		backoff(ctx, policy, failures-1)
	}
}

// pick returns the highest-ranked healthy worker for key, skipping
// workers that already failed this point. When every healthy worker
// has been tried, the tried set resets — a still-healthy worker that
// returned a transport flake deserves another attempt (bounded by the
// retry budget).
func (d *Dispatcher) pick(key string, tried map[string]bool) (WorkerInfo, bool) {
	healthy := d.Members.Healthy()
	if len(healthy) == 0 {
		return WorkerInfo{}, false
	}
	byID := make(map[string]WorkerInfo, len(healthy))
	ids := make([]string, 0, len(healthy))
	fresh := 0
	for _, w := range healthy {
		byID[w.ID] = w
		ids = append(ids, w.ID)
		if !tried[w.ID] {
			fresh++
		}
	}
	if fresh == 0 {
		clear(tried)
	}
	for _, id := range Rank(key, ids) {
		if !tried[id] {
			return byID[id], true
		}
	}
	return WorkerInfo{}, false
}

// pickHedge returns the best healthy worker other than primary.
func (d *Dispatcher) pickHedge(key, primary string) (WorkerInfo, bool) {
	healthy := d.Members.Healthy()
	byID := make(map[string]WorkerInfo, len(healthy))
	ids := make([]string, 0, len(healthy))
	for _, w := range healthy {
		byID[w.ID] = w
		ids = append(ids, w.ID)
	}
	for _, id := range Rank(key, ids) {
		if id != primary {
			return byID[id], true
		}
	}
	return WorkerInfo{}, false
}

// attempt runs one hedgeable dispatch of a point: the primary worker
// immediately, a duplicate on the next-ranked worker once the straggler
// threshold passes, first successful result wins. Each leg is bounded
// by ShardTimeout and watched against membership — a leg whose worker's
// heartbeat expires is cancelled and reported as ErrWorkerLost.
func (d *Dispatcher) attempt(ctx context.Context, key string, p Point, primary WorkerInfo) (PointResult, error) {
	timeout := d.ShardTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	type outcome struct {
		res  PointResult
		err  error
		id   string
		lost bool
	}
	ch := make(chan outcome, 2) // buffered: a losing leg must never block
	launch := func(w WorkerInfo) {
		go func() {
			wctx, wcancel := context.WithCancel(actx)
			defer wcancel()
			lost := make(chan struct{})
			go d.watchWorker(wctx, w.ID, wcancel, lost)
			res, err := d.Exec.Execute(wctx, w.URL, p, key)
			wasLost := false
			if err != nil {
				select {
				case <-lost:
					wasLost = true
					err = fmt.Errorf("%w: %s", ErrWorkerLost, w.ID)
				default:
				}
			}
			ch <- outcome{res: res, err: err, id: w.ID, lost: wasLost}
		}()
	}

	launch(primary)
	inflight := 1
	var hedgeC <-chan time.Time
	if d.HedgeAfter > 0 {
		t := time.NewTimer(d.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				o.res.Worker = o.id
				return o.res, nil
			}
			// Prefer surfacing a lost worker over a transport error: loss
			// must not consume the retry budget.
			if firstErr == nil || o.lost {
				firstErr = o.err
			}
			if inflight == 0 {
				return PointResult{}, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if hedge, ok := d.pickHedge(key, primary.ID); ok {
				d.hedged.Add(1)
				if d.OnHedge != nil {
					d.OnHedge(key, primary.ID, hedge.ID)
				}
				d.logf("straggler hedged", "key", short(key),
					"primary", primary.ID, "hedge", hedge.ID)
				launch(hedge)
				inflight++
			}
		}
	}
}

// watchWorker cancels an in-flight attempt the moment its worker's
// heartbeat expires, closing lost first so the attempt can classify the
// cancellation as a death rather than a flake.
func (d *Dispatcher) watchWorker(ctx context.Context, id string, cancel context.CancelFunc, lost chan<- struct{}) {
	poll := d.DeathPoll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !d.Members.Alive(id) {
				close(lost)
				cancel()
				return
			}
		}
	}
}

// degrade executes a point locally — the graceful-degradation path —
// and flags the result.
func (d *Dispatcher) degrade(ctx context.Context, key string, p Point, why string) PointResult {
	d.degraded.Add(1)
	d.logf("point degraded to local execution", "key", short(key), "why", why)
	res := d.Local(ctx, p, key)
	res.Degraded = true
	res.Worker = ""
	return res
}

func (d *Dispatcher) logf(msg string, args ...any) {
	if d.Logger != nil {
		d.Logger.Info(msg, args...)
	}
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
