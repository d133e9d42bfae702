package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Executor runs one point on one worker. Transport-level failures
// (connection refused, timeout, non-200) are returned as errors and
// move the point along its worker rank; a verdict-level failure travels
// inside PointResult.Err and is terminal.
type Executor interface {
	Execute(ctx context.Context, workerURL string, p Point, key string) (PointResult, error)
}

const (
	// deathPoll is how often a running leg checks its worker's liveness.
	deathPoll = 25 * time.Millisecond
	// maxInFlight bounds the points a Run drives concurrently.
	maxInFlight = 8
)

// Dispatcher shards points across the healthy worker set and drives
// them to terminal results. Only Members, Exec and Local are required.
type Dispatcher struct {
	Members *Membership
	Exec    Executor
	// Local executes a point in-process — the degraded path when every
	// healthy worker in the point's rank has failed it, or none is
	// healthy. It must not be nil and reports failures inside
	// PointResult.Err, never by panic.
	Local func(ctx context.Context, p Point, key string) PointResult

	// ShardTimeout bounds one leg: a point's call on one worker
	// (default 2m).
	ShardTimeout time.Duration
	// HedgeAfter is the straggler threshold: once the newest leg
	// outlives it, the next-ranked worker starts a leg too, first result
	// wins. Zero or negative disables hedging.
	HedgeAfter time.Duration

	Logger *slog.Logger

	// Event hooks, invoked synchronously from dispatch goroutines; nil
	// hooks are skipped. msd wires them to telemetry counters.
	OnReassign func(key, from, to string)
	OnHedge    func(key, primary, hedge string)
}

// Run drives every point to a terminal result. keys is parallel to
// points (the caller computes canonical cache keys once); onResult is
// invoked exactly once per index, from dispatch goroutines, in
// completion order. Points sharing a key are coalesced onto one
// execution and each index still receives its own onResult call.
// Run blocks until every point is terminal; a cancelled ctx drains
// quickly by failing the remaining points with the context error.
func (d *Dispatcher) Run(ctx context.Context, points []Point, keys []string, onResult func(idx int, res PointResult)) {
	if len(points) != len(keys) {
		panic("cluster: Dispatcher.Run: len(points) != len(keys)")
	}

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

	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := d.walk(ctx, t.key, t.point)
			for _, idx := range t.indices {
				onResult(idx, res)
			}
		}()
	}
	wg.Wait()
}

// legResult is one leg's outcome: the worker's answer or why it gave
// none.
type legResult struct {
	res PointResult
	err error
	id  string
}

// walk drives one unique point down its rendezvous rank over the
// healthy workers. The first leg goes to the top-ranked worker; the
// next worker not yet tried for the point starts a leg when every
// running leg has failed (a reassignment) or when the newest leg
// outlives HedgeAfter (a hedge). The first result wins and cancels the
// other legs. A worker that failed the point is not asked again: the
// verdict is a pure function of the point, so another worker — or the
// coordinator itself, once the rank is used up — answers with the same
// bytes.
func (d *Dispatcher) walk(ctx context.Context, key string, p Point) PointResult {
	if err := ctx.Err(); err != nil {
		return PointResult{Key: key, Err: fmt.Sprintf("dispatch cancelled: %v", err)}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel() // the first result wins: the other legs stop
	results := make(chan legResult)
	tried := make(map[string]bool)
	running := 0
	var hedgeC <-chan time.Time
	// next starts a leg on the best healthy worker not yet tried for the
	// point and returns its ID; false means the rank is used up.
	next := func() (string, bool) {
		urls := make(map[string]string)
		var ids []string
		for _, w := range d.Members.Healthy() {
			if !tried[w.ID] {
				urls[w.ID] = w.URL
				ids = append(ids, w.ID)
			}
		}
		if len(ids) == 0 {
			return "", false
		}
		id := Rank(key, ids)[0]
		tried[id] = true
		running++
		if d.HedgeAfter > 0 {
			hedgeC = time.After(d.HedgeAfter)
		}
		go d.leg(wctx, id, urls[id], p, key, results)
		return id, true
	}

	newest, ok := next()
	if !ok {
		return d.degrade(ctx, key, p, "no healthy workers")
	}
	for {
		select {
		case r := <-results:
			running--
			if r.err == nil {
				r.res.Key, r.res.Worker = key, r.id
				return r.res
			}
			d.logf("dispatch leg failed", "key", short(key), "worker", r.id, "err", r.err)
			if running > 0 {
				continue
			}
			if err := ctx.Err(); err != nil {
				return PointResult{Key: key, Err: fmt.Sprintf("dispatch cancelled: %v", err)}
			}
			to, ok := next()
			if !ok {
				return d.degrade(ctx, key, p, fmt.Sprintf("every ranked worker failed, last: %v", r.err))
			}
			if d.OnReassign != nil {
				d.OnReassign(key, r.id, to)
			}
			d.logf("point reassigned", "key", short(key), "from", r.id, "to", to)
			newest = to
		case <-hedgeC:
			hedgeC = nil
			hedge, ok := next()
			if !ok {
				continue
			}
			if d.OnHedge != nil {
				d.OnHedge(key, newest, hedge)
			}
			d.logf("straggler hedged", "key", short(key), "primary", newest, "hedge", hedge)
			newest = hedge
		}
	}
}

// leg runs the point on one worker, bounded by ShardTimeout and
// cancelled the moment the worker's heartbeat expires, and reports the
// outcome unless the walk has already returned.
func (d *Dispatcher) leg(ctx context.Context, id, url string, p Point, key string, results chan<- legResult) {
	timeout := d.ShardTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	lctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	go d.watchWorker(lctx, id, cancel)
	res, err := d.Exec.Execute(lctx, url, p, key)
	select {
	case results <- legResult{res: res, err: err, id: id}:
	case <-ctx.Done():
	}
}

// watchWorker cancels a running leg once its worker's heartbeat
// expires, so a dead worker fails the leg without waiting out
// ShardTimeout.
func (d *Dispatcher) watchWorker(ctx context.Context, id string, cancel context.CancelFunc) {
	t := time.NewTicker(deathPoll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !d.Members.Alive(id) {
				cancel()
				return
			}
		}
	}
}

// degrade executes a point locally — the graceful-degradation path —
// and flags the result.
func (d *Dispatcher) degrade(ctx context.Context, key string, p Point, why string) PointResult {
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
