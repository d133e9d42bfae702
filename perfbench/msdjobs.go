package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/msd"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// msd-jobs: the daemon path. A coordinator and one worker msd.Server run
// on loopback listeners at cmd/msd's defaults (one job worker each, the
// journal, a disk-backed verdict cache and the history store in a fresh
// temporary directory); an in-process cluster.Agent registers the
// worker. Two clients each submit a request, poll it to a terminal state
// and fetch its artifact before submitting the next, so the daemon sets
// the rate. This is the only workload with HTTP, queueing, the journal,
// artifact rendering, the verdict cache and cluster dispatch, and it
// carries all three submission paths: report jobs, matrix jobs and
// batches.

// A deck is msdReportKernels report jobs, msdResubmits exact
// resubmissions of some of them, one small matrix job per msdMatrices
// entry and msdBatches batches, in seeded order. Every fresh request
// carries a seed offset of its own, so it misses the cache; a
// resubmission repeats an earlier request of its deck byte for byte.
var msdReportKernels = [...]string{
	"ME-NAIVE", "ME-V1-CV", "ME-V1-MV", "ME-V1-MV-6A", "ME-V1-MV-6B", "CT-MEM-CMP", "constant_time_lookup",
}

// msdGrid is the matrix jobs' grid of msdGridCells cells; each matrix
// kernel leaks in exactly the listed cells of it.
const (
	msdGrid      = "prefetch=none,stride;predictor=gshare,tage"
	msdGridCells = 4
)

var msdMatrices = [...]struct {
	workload string
	leaky    []string
}{
	{"TAGE-HIST", []string{"prefetch=none,predictor=tage", "prefetch=stride,predictor=tage"}},
	{"SPF-STREAM", []string{"prefetch=stride,predictor=gshare", "prefetch=stride,predictor=tage"}},
}

// msdBatchKernels are the points of every batch, verified on SmallBoom.
var msdBatchKernels = [...]string{"ME-NAIVE", "ME-WIN4-LKUP", "SPECTRE-PHT", "CT-DIV"}

const (
	msdResubmits = 4
	msdBatches   = 2
	msdFresh     = len(msdReportKernels) + len(msdMatrices) + msdBatches
	msdDeckLen   = msdFresh + msdResubmits

	// msdPoll is the status poll interval, small next to the ~100 ms
	// median operation.
	msdPoll = 5 * time.Millisecond
	// msdOpTimeout bounds one operation, so a stuck daemon fails the run
	// instead of hanging it.
	msdOpTimeout = 60 * time.Second
	// msdWarmupOffset starts the seed offsets of set-up's warm-up
	// requests, above every offset a timed request can draw.
	msdWarmupOffset = 10_000_000_000
)

type msdKind int

const (
	kindReport msdKind = iota
	kindResubmit
	kindMatrix
	kindBatch
)

// msdOp is one generated request with what its answer must be.
type msdOp struct {
	kind msdKind
	path string
	body []byte
	// workload names a report job's kernel, or a matrix job's.
	workload   string
	seedOffset int
	// of is the deck position of a resubmission's original.
	of int
	// leakyCells is a matrix job's expected verdict.
	leakyCells []string
	points     []cluster.Point
}

func reportOp(kernel string, so int) msdOp {
	body, _ := json.Marshal(msd.JobRequest{Workload: kernel, SeedOffset: so})
	return msdOp{kind: kindReport, path: "/api/v1/jobs", body: body, workload: kernel, seedOffset: so}
}

func matrixOp(m int, so int) msdOp {
	x := msdMatrices[m]
	body, _ := json.Marshal(msd.JobRequest{Workload: x.workload, Matrix: msdGrid, SeedOffset: so})
	return msdOp{kind: kindMatrix, path: "/api/v1/matrix", body: body, workload: x.workload, seedOffset: so, leakyCells: x.leaky}
}

func batchOp(so int) msdOp {
	var req msd.BatchRequest
	op := msdOp{kind: kindBatch, path: "/api/v1/batch", seedOffset: so}
	for _, k := range msdBatchKernels {
		req.Entries = append(req.Entries, msd.BatchEntry{Workload: k, Config: "small", SeedOffset: so})
		op.points = append(op.points, cluster.Point{Workload: k, Config: "small", SeedOffset: so})
	}
	op.body, _ = json.Marshal(req)
	return op
}

// msdDeck is deck d of the seeded request sequence. It depends on the
// seed and d alone, never on a daemon's answers.
func msdDeck(seed int64, d int) []msdOp {
	base := int(uint64(seed)%100_000)*100_000 + d*16 + 1
	var fresh []msdOp
	for _, k := range msdReportKernels {
		fresh = append(fresh, reportOp(k, base+len(fresh)))
	}
	for m := range msdMatrices {
		fresh = append(fresh, matrixOp(m, base+len(fresh)))
	}
	for b := 0; b < msdBatches; b++ {
		fresh = append(fresh, batchOp(base+len(fresh)))
	}
	r := deckRand(seed, d)
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	// Resubmit msdResubmits of the report jobs, each at least two
	// positions after its original so that the original is usually
	// submitted first even with two clients.
	deck := fresh
	for _, k := range r.Perm(len(msdReportKernels))[:msdResubmits] {
		at := slices.IndexFunc(deck, func(o msdOp) bool { return o.kind == kindReport && o.workload == msdReportKernels[k] })
		re := deck[at]
		re.kind = kindResubmit
		pos := len(deck)
		if room := len(deck) - at - 1; room > 0 {
			pos = at + 2 + r.IntN(room)
		}
		deck = slices.Insert(deck, min(pos, len(deck)), re)
	}
	for i := range deck {
		if deck[i].kind == kindResubmit {
			deck[i].of = slices.IndexFunc(deck, func(o msdOp) bool { return o.kind == kindReport && o.workload == deck[i].workload })
		}
	}
	return deck
}

// msdWarmups is set-up's untimed warm-up: one request of each kind, at
// seed offsets no timed request uses.
func msdWarmups() []msdOp {
	rep := reportOp(msdReportKernels[0], msdWarmupOffset)
	re := rep
	re.kind = kindResubmit
	return []msdOp{rep, re, matrixOp(0, msdWarmupOffset+1), batchOp(msdWarmupOffset + 2)}
}

// jobView and batchView decode the daemon's status documents.
type jobView struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	Error      string    `json:"error"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	Leaky      *bool     `json:"leaky"`
	SimCycles  int64     `json:"simCycles"`
	Cells      int       `json:"cells"`
	LeakyCells []string  `json:"leakyCells"`
	Cached     bool      `json:"cached"`
}

type batchView struct {
	ID             string    `json:"id"`
	Status         string    `json:"status"`
	Points         int       `json:"points"`
	Done           int       `json:"done"`
	Failed         int       `json:"failed"`
	DegradedPoints int       `json:"degradedPoints"`
	Reassigned     int       `json:"reassigned"`
	Hedged         int       `json:"hedged"`
	Submitted      time.Time `json:"submitted"`
	Finished       time.Time `json:"finished"`
	Results        []struct {
		Result *cluster.PointResult `json:"result"`
	} `json:"results"`
}

// msdOut is what one executed request observed.
type msdOut struct {
	op     msdOp
	lat    time.Duration
	submit time.Duration
	polls  int
	posts  int
	job    jobView
	batch  batchView
	// artifact is the SHA-256 of the fetched report or matrix artifact:
	// enough to compare a resubmission with its original without holding
	// every answer's bytes for the whole run.
	artifact [sha256.Size]byte
	// keyTime is the time the traced run spent computing the request's
	// cache key; zero when no key was computed.
	keyTime time.Duration
	err     error
}

// daemon is one msd.Server serving on a loopback listener.
type daemon struct {
	srv  *msd.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startDaemon(cfg msd.Config) (*daemon, error) {
	srv, err := msd.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(d.done)
		d.stop()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon's jobs and batches, then closes its listener
// and connections. Close, not Shutdown: a connection a client dialed but
// never used would hold Shutdown for five seconds.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx)
	_ = d.hs.Close()
	<-d.done
}

// daemonConfig is cmd/msd's default configuration, journaled under dir.
func daemonConfig(dir string) msd.Config {
	return msd.Config{
		Workers:       1,
		QueueSize:     16,
		MaxJobs:       64,
		FlightFrames:  1024,
		CacheEntries:  256,
		CacheDir:      filepath.Join(dir, "cache"),
		HistoryDir:    filepath.Join(dir, "history"),
		JournalDir:    dir,
		WorkerTTL:     5 * time.Second,
		HedgeAfter:    30 * time.Second,
		ShardTimeout:  2 * time.Minute,
		MaxRetryAfter: 5 * time.Minute,
	}
}

type msdEnv struct {
	traced bool
	dir    string
	coord  *daemon
	worker *daemon
	// stopAgent stops the worker's registration loop; agentDone closes
	// once it has returned.
	stopAgent context.CancelFunc
	agentDone chan struct{}
	tr        *http.Transport
	client    *http.Client
	decks     deckMemo[[]msdOp]

	mu   sync.Mutex
	outs map[int]*msdOut
}

func openMSD(o runOpts) (env, error) {
	dir, err := os.MkdirTemp("", "perfbench-msd-")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	e := &msdEnv{
		traced: o.traced, dir: dir, tr: tr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		outs:   make(map[int]*msdOut),
	}
	e.decks.gen = func(d int) []msdOp { return msdDeck(o.seed, d) }
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// start brings up the coordinator, the worker and its agent, waits until
// the coordinator lists the worker healthy, and runs the warm-ups.
func (e *msdEnv) start() error {
	var err error
	cc := daemonConfig(filepath.Join(e.dir, "coordinator"))
	cc.Coordinator = true
	if e.coord, err = startDaemon(cc); err != nil {
		return err
	}
	wc := daemonConfig(filepath.Join(e.dir, "worker"))
	wc.CoordinatorURL = e.coord.url
	if e.worker, err = startDaemon(wc); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopAgent, e.agentDone = cancel, make(chan struct{})
	agent := &cluster.Agent{Coordinator: e.coord.url, Self: e.worker.url, Interval: time.Second, Client: e.client}
	go func() {
		defer close(e.agentDone)
		agent.Run(ctx)
	}()
	if err := e.awaitWorker(); err != nil {
		return err
	}
	var first msdOut
	for i, op := range msdWarmups() {
		out := e.exec(op)
		if out.err == nil {
			out.err = checkAnswer(&out)
		}
		if out.err == nil && op.kind == kindResubmit && out.artifact != first.artifact {
			out.err = errors.New("resubmission answered different report bytes")
		}
		if out.err != nil {
			return fmt.Errorf("warm-up %d: %w", i, out.err)
		}
		if i == 0 {
			first = out
		}
	}
	return nil
}

// awaitWorker polls the coordinator's worker list until the worker is
// healthy.
func (e *msdEnv) awaitWorker() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var v struct {
			Workers []cluster.WorkerInfo `json:"workers"`
		}
		if err := e.getJSON(e.coord.url+"/api/v1/cluster/workers", &v); err != nil {
			return err
		}
		for _, w := range v.Workers {
			if w.Healthy && w.URL == e.worker.url {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("worker never became healthy")
}

func (e *msdEnv) do(i int) opResult {
	op := e.decks.get(i / msdDeckLen)[i%msdDeckLen]
	out := e.exec(op)
	if out.err == nil {
		out.err = checkAnswer(&out)
	}
	e.mu.Lock()
	e.outs[i] = &out
	e.mu.Unlock()
	return opResult{verdicts: answered(op), lat: out.lat, err: out.err}
}

// answered is the number of verdicts an operation delivers: one per
// report, matrix cell and batch point.
func answered(op msdOp) int {
	switch op.kind {
	case kindMatrix:
		return msdGridCells
	case kindBatch:
		return len(op.points)
	}
	return 1
}

// exec submits one request, polls it to a terminal state and fetches its
// artifact. Its latency runs from the first POST to the poll that sees
// the terminal state; a 503 is retried after the poll interval and
// counted.
func (e *msdEnv) exec(op msdOp) (out msdOut) {
	out.op = op
	if e.traced && (op.kind == kindReport || op.kind == kindResubmit) {
		// The cache key of the request as msd would compute it; timing
		// it is tracing work the untraced run does not do.
		t := time.Now()
		w, err := workloads.ByName(op.workload)
		if err == nil {
			_, err = core.CacheKey(w, core.Options{Config: sim.MegaBoom(), Runs: 4, SeedOffset: op.seedOffset})
		}
		out.keyTime = time.Since(t)
		if err != nil {
			out.err = err
			return out
		}
	}
	start := time.Now()
	deadline := start.Add(msdOpTimeout)
	var id string
	for {
		out.posts++
		status, body, err := e.post(e.coord.url+op.path, op.body)
		if err != nil {
			out.err = err
			return out
		}
		if status == http.StatusServiceUnavailable && time.Now().Before(deadline) {
			time.Sleep(msdPoll)
			continue
		}
		if status != http.StatusAccepted {
			out.err = fmt.Errorf("POST %s: HTTP %d: %s", op.path, status, bytes.TrimSpace(body))
			return out
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			out.err = fmt.Errorf("POST %s: %w", op.path, err)
			return out
		}
		id = v.ID
		break
	}
	out.submit = time.Since(start)

	status := e.coord.url + "/api/v1/jobs/" + id
	if op.kind == kindBatch {
		status = e.coord.url + "/api/v1/batch/" + id
	}
	for {
		var terminal bool
		var err error
		if op.kind == kindBatch {
			out.batch = batchView{}
			err = e.getJSON(status, &out.batch)
			terminal = out.batch.Status == msd.BatchDone
		} else {
			out.job = jobView{}
			err = e.getJSON(status, &out.job)
			terminal = out.job.Status != string(msd.StatusQueued) && out.job.Status != string(msd.StatusRunning)
		}
		out.polls++
		if err != nil {
			out.err = err
			return out
		}
		if terminal {
			break
		}
		if time.Now().After(deadline) {
			out.err = fmt.Errorf("%s: not terminal after %v", id, msdOpTimeout)
			return out
		}
		time.Sleep(msdPoll)
	}
	out.lat = time.Since(start)

	var artifact []byte
	switch op.kind {
	case kindBatch:
		return out
	case kindMatrix:
		artifact, out.err = e.get(status + "/matrix")
	default:
		artifact, out.err = e.get(status + "/report")
	}
	out.artifact = sha256.Sum256(artifact)
	if out.job.Status != string(msd.StatusDone) {
		out.err = fmt.Errorf("%s %s: %s", id, out.job.Status, out.job.Error)
	}
	return out
}

// checkAnswer holds one answer to what its request must produce. The
// checks that need other operations' answers run in check.
func checkAnswer(out *msdOut) error {
	op := out.op
	switch op.kind {
	case kindReport, kindResubmit:
		want := paperLabels[op.workload]
		if out.job.Leaky == nil || *out.job.Leaky != want {
			return fmt.Errorf("%s: leaky=%v, want %v", op.workload, out.job.Leaky != nil && *out.job.Leaky, want)
		}
	case kindMatrix:
		got := slices.Clone(out.job.LeakyCells)
		sort.Strings(got)
		if out.job.Cells != msdGridCells || !slices.Equal(got, op.leakyCells) {
			return fmt.Errorf("%s matrix: %d cells, leaky %v, want %d cells, leaky %v",
				op.workload, out.job.Cells, got, msdGridCells, op.leakyCells)
		}
	case kindBatch:
		b := out.batch
		if b.Points != len(op.points) || b.Done != len(op.points) || b.Failed != 0 || len(b.Results) != len(op.points) {
			return fmt.Errorf("batch %s: %d points, %d done, %d failed", b.ID, b.Points, b.Done, b.Failed)
		}
		for i, r := range b.Results {
			if r.Result == nil || r.Result.Err != "" || len(r.Result.Digest) == 0 {
				return fmt.Errorf("batch %s point %d has no verdict", b.ID, i)
			}
		}
	}
	return nil
}

// check compares every resubmission with its original, byte for byte,
// and every batch point with the library's verdict for the same point.
func (e *msdEnv) check(ops []opResult) {
	for i := range ops {
		out := e.outs[i]
		if out == nil || out.err != nil {
			continue
		}
		switch out.op.kind {
		case kindResubmit:
			orig := e.outs[i/msdDeckLen*msdDeckLen+out.op.of]
			if orig == nil || orig.err != nil || orig.artifact != out.artifact {
				out.err = fmt.Errorf("resubmitted %s answered different report bytes", out.op.workload)
			}
		case kindBatch:
			for p, pt := range out.op.points {
				if err := libraryMatches(pt, out.batch.Results[p].Result.Digest); err != nil {
					out.err = fmt.Errorf("batch %s point %d: %w", out.batch.ID, p, err)
					break
				}
			}
		}
		if out.err != nil {
			ops[i].err = out.err
		}
	}
}

// libraryMatches verifies a batch point with core.Verify and compares
// the digests.
func libraryMatches(p cluster.Point, digest []byte) error {
	w, o, err := p.Resolve()
	if err != nil {
		return err
	}
	o.Parallel = core.ParallelAuto
	rep, err := core.Verify(w, o)
	if err != nil {
		return err
	}
	want, err := digestJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, digest) {
		return errors.New("daemon digest differs from the library's")
	}
	return nil
}

func (e *msdEnv) layers(ops []opResult, wall time.Duration, rt rtSnap) (map[string]metric, counts, error) {
	// The daemons run the pipeline out of reach; replay the first deck's
	// report jobs in this process for the pipeline layers, and hold each
	// replay to the daemon's verdict.
	var split layerSplit
	var cn counts
	for i := 0; i < min(msdDeckLen, len(ops)); i++ {
		out := e.outs[i]
		if out == nil || out.err != nil {
			return nil, counts{}, fmt.Errorf("count window op %d failed", i)
		}
		switch out.op.kind {
		case kindReport:
			cn.SimCycles += out.job.SimCycles
			w, err := workloads.ByName(out.op.workload)
			if err != nil {
				return nil, counts{}, err
			}
			one := layerSplit{ops: 1}
			rep, err := replay(w, verifyShape{cfg: sim.MegaBoom(), runs: 4, warmup: 2, seedOffset: out.op.seedOffset}, renderJobArtifacts, &one)
			if err != nil {
				return nil, counts{}, err
			}
			if rep.AnyLeak() != *out.job.Leaky || rep.SimCycles != out.job.SimCycles {
				return nil, counts{}, fmt.Errorf("replayed %s disagrees with the daemon's answer", out.op.workload)
			}
			split.add(&one)
		case kindMatrix:
			cn.SimCycles += out.job.SimCycles
		case kindBatch:
			for _, r := range out.batch.Results {
				cn.SimCycles += r.Result.SimCycles
			}
		}
	}
	cn.TraceRows, cn.Unique, cn.TableCols, cn.ReportBytes = split.counts.TraceRows, split.counts.Unique, split.counts.TableCols, split.counts.ReportBytes

	var (
		n, jobs, keys, fresh, cachedJobs, batches, points, remote, extra, posts, rejected int
		lat, submit, wait, run, overhead, batchLat, pointLat, keyTime                     time.Duration
		polls                                                                             int
		hitLats                                                                           []float64
	)
	for i := range ops {
		out := e.outs[i]
		if out == nil || out.err != nil {
			continue
		}
		n++
		lat += out.lat
		submit += out.submit
		polls += out.polls
		posts += out.posts
		rejected += out.posts - 1
		keyTime += out.keyTime
		if out.keyTime > 0 {
			keys++
		}
		if out.op.kind == kindBatch {
			b := out.batch
			batches++
			batchLat += out.lat
			overhead += out.lat - b.Finished.Sub(b.Submitted)
			pointLat += b.Finished.Sub(b.Submitted) / time.Duration(max(b.Points, 1))
			extra += b.Reassigned + b.Hedged + b.DegradedPoints
			for _, r := range b.Results {
				points++
				if r.Result.Worker != "" {
					remote++
				}
			}
			continue
		}
		j := out.job
		jobs++
		wait += j.Started.Sub(j.Submitted)
		overhead += out.lat - j.Finished.Sub(j.Submitted)
		if j.Cached {
			cachedJobs++
			hitLats = append(hitLats, ms(out.lat))
		} else {
			fresh++
			run += j.Finished.Sub(j.Started)
		}
	}
	mean := func(d time.Duration, k int) float64 { return ms(d) / float64(max(k, 1)) }
	m := split.metrics()
	for k, v := range map[string]metric{
		"cache.key_us":              {float64(keyTime) / float64(time.Microsecond) / float64(max(keys, 1)), "us"},
		"cache.hit_frac":            {ratio(float64(cachedJobs), float64(jobs)), "frac"},
		"cache.hit_latency_ms":      {median(hitLats), "ms"},
		"msd.submit_ms":             {mean(submit, n), "ms"},
		"msd.queue_wait_ms":         {mean(wait, jobs), "ms"},
		"msd.run_ms":                {mean(run, fresh), "ms"},
		"msd.client_overhead_ms":    {mean(overhead, n), "ms"},
		"msd.polls_per_op":          {float64(polls) / float64(max(n, 1)), "1/op"},
		"msd.rejected_frac":         {ratio(float64(rejected), float64(posts)), "frac"},
		"cluster.batch_ms":          {mean(batchLat, batches), "ms"},
		"cluster.point_ms":          {mean(pointLat, batches), "ms"},
		"cluster.remote_frac":       {ratio(float64(remote), float64(points)), "frac"},
		"cluster.extra_attempts":    {float64(extra), "attempts"},
		"core.unaccounted_frac":     {ratio(float64(overhead), float64(lat)), "frac"},
		"bench.trace_overhead_frac": {ratio(float64(keyTime), float64(lat)), "frac"},
	} {
		m[k] = v
	}
	for k, v := range rt.metrics(verdicts(ops)) {
		m[k] = v
	}
	return m, cn, nil
}

// renderJobArtifacts renders a report job's artifact set the way msd
// does (its span trace aside: a replay records no core spans).
func renderJobArtifacts(rep *core.Report) (int, error) {
	js, err := report.JSON(rep)
	if err != nil {
		return 0, err
	}
	hm, err := report.BuildHeatmap(rep, 0)
	if err != nil {
		return 0, err
	}
	hmJSON, err := hm.JSON()
	if err != nil {
		return 0, err
	}
	pv, err := report.BuildProvenance(rep)
	if err != nil {
		return 0, err
	}
	pvJSON, err := pv.JSON()
	if err != nil {
		return 0, err
	}
	dg, err := digestJSON(rep)
	if err != nil {
		return 0, err
	}
	return len(js) + len(hmJSON) + len(hm.HTML()) + len(pvJSON) + len(pv.HTMLWithDisasm(rep.Program, 5, 4)) + len(dg), nil
}

func (e *msdEnv) close() {
	if e.stopAgent != nil {
		e.stopAgent()
		<-e.agentDone
	}
	if e.worker != nil {
		e.worker.stop()
	}
	if e.coord != nil {
		e.coord.stop()
	}
	e.tr.CloseIdleConnections()
	_ = os.RemoveAll(e.dir)
}

func (e *msdEnv) post(url string, body []byte) (int, []byte, error) {
	resp, err := e.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (e *msdEnv) get(url string) ([]byte, error) {
	resp, err := e.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (e *msdEnv) getJSON(url string, v any) error {
	data, err := e.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
