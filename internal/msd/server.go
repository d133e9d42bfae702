// Package msd implements the MicroSampler daemon: a long-running HTTP
// service that accepts verification jobs, runs them on a bounded
// worker pool, and exposes the observability surfaces of the pipeline
// — Prometheus metrics, pprof, per-job Perfetto traces, JSON reports
// and leakage heatmaps. It is the serving boundary the ROADMAP's
// "production-scale system" grows behind: cmd/msd is a thin flag/signal
// wrapper around this package.
package msd

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"microsampler/internal/cache"
	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/history"
	"microsampler/internal/telemetry"
	"microsampler/internal/telemetry/export"
	"microsampler/internal/version"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the number of jobs verified concurrently (default 1).
	// Each job additionally parallelises its own simulation runs via
	// JobRequest.Parallel / core.Options.Parallel.
	Workers int
	// QueueSize bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 503 (default 16).
	QueueSize int
	// MaxJobs bounds the number of finished jobs and, separately, of
	// finished batches retained in memory; the oldest are evicted first
	// (default 64).
	MaxJobs int
	// Logger receives the daemon's structured logs; every job's
	// pipeline events carry its job ID as run_id. Nil discards.
	Logger *slog.Logger
	// Metrics is the registry served at /metrics; the verification
	// pipeline's own counters land in the same registry so one scrape
	// sees daemon and pipeline state. Nil creates a fresh registry.
	Metrics *telemetry.Registry
	// Watchdog aborts a simulation run that stops retiring instructions
	// for this wall-clock duration (0: disabled); aborted runs carry a
	// flight-recorder post-mortem when FlightFrames is positive.
	Watchdog time.Duration
	// FlightFrames arms a per-run flight recorder of the last N cycles;
	// failed jobs then expose a "postmortem" Perfetto artifact showing
	// the final approach. Zero disables the recorder.
	FlightFrames int

	// CacheEntries enables the content-addressed verdict cache: up to
	// this many finished jobs' artifact sets are retained (LRU) keyed by
	// the canonical hash of (program, config, seed range,
	// detection-relevant options), and a resubmission with the same key
	// is served the identical bytes without simulating. Identical
	// requests already in flight are deduplicated onto one computation.
	// Zero disables caching.
	CacheEntries int
	// CacheDir, when non-empty (and CacheEntries is positive), adds an
	// fsync'd disk layer under this directory: cached verdicts survive a
	// daemon restart. Typically a subdirectory of JournalDir.
	CacheDir string

	// HistoryDir, when non-empty, enables the run-history store: every
	// finished job's verdict is appended to an append-only labeled index
	// under this directory with its diffable artifact (report digest or
	// matrix) filed content-addressed, feeding GET /api/v1/history and
	// POST /api/v1/diff. Typically a subdirectory of JournalDir.
	HistoryDir string

	// AuditBatch is how many terminal journal records one Merkle root of
	// the tamper-evident audit chain covers (0: a small default; see
	// merkle.go). Auditing is active whenever JournalDir is set.
	AuditBatch int

	// Coordinator enables the cluster-coordinator surface: worker
	// registration and heartbeats, the batch endpoint that shards
	// program×config points across the healthy worker set, and the
	// shared verdict store behind GET/PUT /api/v1/cache/{key}. A
	// coordinator without CacheEntries still gets a small in-memory
	// verdict cache — cross-node fill and reassignment dedup depend on
	// one existing.
	Coordinator bool
	// WorkerTTL is how stale a worker's heartbeat may be before the
	// coordinator marks it dead and reassigns its in-flight shards
	// (default 5s).
	WorkerTTL time.Duration
	// HedgeAfter floors the straggler threshold: a dispatch outliving
	// max(HedgeAfter, 3×latency-EWMA) gets a hedged duplicate on the
	// next-ranked worker, first result wins (default 30s; negative
	// disables hedging).
	HedgeAfter time.Duration
	// ShardTimeout bounds one dispatch attempt to one worker
	// (default 2m).
	ShardTimeout time.Duration
	// CoordinatorURL, when non-empty, makes this daemon a cluster
	// worker: a point cache miss consults the coordinator's store
	// before simulating, and fresh verdicts are uploaded back —
	// cross-node cache fill.
	CoordinatorURL string

	// MaxRetryAfter caps the 503 Retry-After hint computed from queue
	// depth × average job duration (default 5m; negative disables the
	// cap). An uncapped hint during a long stall tells clients to go
	// away for hours.
	MaxRetryAfter time.Duration

	// JournalDir, when non-empty, enables crash-safe job persistence:
	// every job transition is appended (and fsynced) to a JSONL
	// write-ahead journal under this directory, and finished jobs'
	// artifacts are flushed to jobs/<id>/ on disk before the job is
	// marked done. A daemon restarted over the same directory rebuilds
	// its job table from the journal: jobs queued at the crash are
	// re-enqueued, jobs mid-run are marked interrupted (see
	// RequeueInterrupted), finished jobs reload their artifacts. Empty
	// disables persistence; the daemon is then purely in-memory.
	JournalDir string
	// RequeueInterrupted makes recovery re-enqueue jobs that were
	// running when the previous process died, instead of leaving them
	// terminally interrupted. Safe because verification is
	// deterministic and side-effect free.
	RequeueInterrupted bool

	// verify, when non-nil, replaces a report job's verification; the
	// in-package tests use it to model slow or failing jobs without
	// paying for a simulation. verifyMatrix is its grid-sweep
	// counterpart, used for jobs with JobRequest.Matrix set.
	// executePoint replaces the per-point verification of the cluster
	// path the same way.
	verify       func(j *Job) (*core.Report, error)
	verifyMatrix func(j *Job) (*core.Matrix, error)
	executePoint func(p cluster.Point, key string) cluster.PointResult
}

// Server is the daemon: an http.Handler plus a worker pool.
type Server struct {
	cfg Config
	log *slog.Logger
	reg *telemetry.Registry
	mux *http.ServeMux

	queue chan *Job
	wg    sync.WaitGroup

	jrn *journal // nil when persistence is disabled
	aud *auditor // nil when persistence is disabled
	// audMu orders terminal journal lines, and the audit records they
	// seal, the same in the journal as in the auditor.
	audMu sync.Mutex

	// cache is the content-addressed verdict store (nil when disabled);
	// cacheDisk its optional persistent layer; flight deduplicates
	// identical in-flight jobs onto one computation.
	cache     *cache.LRU
	cacheDisk *cache.Disk
	flight    cache.Group

	// hist is the labeled run-history store behind /api/v1/history and
	// /api/v1/diff (nil when disabled). It carries its own lock.
	hist *history.Store

	// Cluster state: the worker failure detector, the shared dispatch
	// latency estimate feeding the hedge threshold, the HTTP client
	// batches dispatch (and workers upload) through, and the tracked
	// batches. batchWG counts running batch dispatchers so Drain can
	// wait them out.
	members     *cluster.Membership
	dispatchLat *cluster.LatencyEWMA
	clusterHTTP *http.Client
	batchWG     sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // submission order, for listing and eviction
	nextID      int
	batches     map[string]*Batch
	batchOrder  []string
	nextBatchID int
	draining    bool
	// ewmaJobSec tracks typical job duration (exponentially weighted)
	// to compute the Retry-After hint when the queue saturates.
	ewmaJobSec float64

	queueDepth  *telemetry.Gauge
	inflight    *telemetry.Gauge
	submitted   *telemetry.Counter
	rejected    *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	recovered   *telemetry.Counter
	interrupted *telemetry.Counter
	panics      *telemetry.Counter
	jobCycles   *telemetry.Counter
	queueOldest *telemetry.Gauge
	jobSeconds  *telemetry.Histogram
	waitSeconds *telemetry.Histogram
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	deduped     *telemetry.Counter
	// verdictFlips counts clean↔leaky verdict flips surfaced by the
	// diff endpoint — the scrapeable regression signal.
	verdictFlips *telemetry.Counter
	// Cluster telemetry: the health of the worker set (refreshed at
	// scrape time) and the dispatch pathologies — reassignments after a
	// worker death, hedged straggler duplicates, and the per-point
	// terminal counters including local-degraded execution.
	workersHealthy *telemetry.Gauge
	heartbeatAge   *telemetry.Gauge
	shardReassign  *telemetry.Counter
	hedgedDispatch *telemetry.Counter
	pointsDone     *telemetry.Counter
	pointsFailed   *telemetry.Counter
	pointsDegraded *telemetry.Counter
}

// New builds a Server, recovers any journaled jobs when
// Config.JournalDir is set, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 16
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 5 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 30 * time.Second
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Minute
	}
	if cfg.MaxRetryAfter == 0 {
		cfg.MaxRetryAfter = 5 * time.Minute
	}
	if cfg.Coordinator && cfg.CacheEntries <= 0 {
		// The cluster's exactly-once-per-verdict dedup and cross-node
		// fill live in the coordinator's store; give it one even when job
		// caching was not asked for.
		cfg.CacheEntries = 512
	}
	s := &Server{
		cfg:         cfg,
		log:         cfg.Logger,
		reg:         cfg.Metrics,
		queue:       make(chan *Job, cfg.QueueSize),
		jobs:        make(map[string]*Job),
		batches:     make(map[string]*Batch),
		members:     cluster.NewMembership(cfg.WorkerTTL),
		dispatchLat: &cluster.LatencyEWMA{},
		clusterHTTP: &http.Client{},

		queueDepth:   cfg.Metrics.Gauge("msd_queue_depth"),
		inflight:     cfg.Metrics.Gauge("msd_jobs_inflight"),
		submitted:    cfg.Metrics.Counter("msd_jobs_submitted_total"),
		rejected:     cfg.Metrics.Counter("msd_jobs_rejected_total"),
		completed:    cfg.Metrics.Counter("msd_jobs_completed_total"),
		failed:       cfg.Metrics.Counter("msd_jobs_failed_total"),
		recovered:    cfg.Metrics.Counter("msd_jobs_recovered_total"),
		interrupted:  cfg.Metrics.Counter("msd_jobs_interrupted_total"),
		panics:       cfg.Metrics.Counter("msd_job_panics_total"),
		jobCycles:    cfg.Metrics.Counter("msd_job_cycles_total"),
		queueOldest:  cfg.Metrics.Gauge("msd_queue_oldest_age_seconds"),
		jobSeconds:   cfg.Metrics.Histogram("msd_job_seconds", telemetry.LatencyBuckets()),
		waitSeconds:  cfg.Metrics.Histogram("msd_job_queue_wait_seconds", telemetry.LatencyBuckets()),
		cacheHits:    cfg.Metrics.Counter("msd_cache_hits_total"),
		cacheMisses:  cfg.Metrics.Counter("msd_cache_misses_total"),
		deduped:      cfg.Metrics.Counter("msd_jobs_deduped_total"),
		verdictFlips: cfg.Metrics.Counter("msd_verdict_flips_total"),

		workersHealthy: cfg.Metrics.Gauge("msd_workers_healthy"),
		heartbeatAge:   cfg.Metrics.Gauge("msd_worker_heartbeat_age_seconds"),
		shardReassign:  cfg.Metrics.Counter("msd_shard_reassignments_total"),
		hedgedDispatch: cfg.Metrics.Counter("msd_hedged_dispatches_total"),
		pointsDone:     cfg.Metrics.Counter("msd_batch_points_done_total"),
		pointsFailed:   cfg.Metrics.Counter("msd_batch_points_failed_total"),
		pointsDegraded: cfg.Metrics.Counter("msd_batch_points_degraded_total"),
	}
	// The constant build-info gauge ties every scrape to the exact
	// binary that produced it.
	version.Gauge(cfg.Metrics, "msd_build_info")
	if cfg.CacheEntries > 0 {
		s.cache = cache.NewLRU(cfg.CacheEntries)
		if cfg.CacheDir != "" {
			disk, err := cache.NewDisk(cfg.CacheDir)
			if err != nil {
				return nil, fmt.Errorf("msd: cache dir: %w", err)
			}
			s.cacheDisk = disk
		}
	}
	if cfg.HistoryDir != "" {
		h, err := history.Open(cfg.HistoryDir)
		if err != nil {
			return nil, fmt.Errorf("msd: history: %w", err)
		}
		s.hist = h
	}
	if cfg.JournalDir != "" {
		jrn, recs, raw, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.jrn = jrn
		// Rebuild the audit chain from the raw journal before recovery
		// appends anything, so recovery's own terminal records (dropped
		// or interrupted jobs) land in the chain too.
		s.aud = newAuditor(cfg.AuditBatch)
		s.aud.replay(raw)
		s.recoverJobs(recs)
		s.recoverBatches(recs)
	}
	s.mux = s.buildMux()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	s.resumeBatches()
	return s, nil
}

// recoverJobs rebuilds the job table from a previous incarnation's
// journal. It runs before the worker pool starts and before the HTTP
// surface exists, so plain field access is race-free.
func (s *Server) recoverJobs(recs []journalRecord) {
	for _, r := range recs {
		switch r.Event {
		case "submit":
			if r.Req == nil {
				continue
			}
			if _, dup := s.jobs[r.ID]; !dup {
				s.order = append(s.order, r.ID)
			}
			s.jobs[r.ID] = &Job{ID: r.ID, Req: *r.Req, Status: StatusQueued, Submitted: r.Time}
			if n := idNum(r.ID); n > s.nextID {
				s.nextID = n
			}
		case "start":
			if j := s.jobs[r.ID]; j != nil {
				j.Status = StatusRunning
				j.Started = r.Time
			}
		case "done":
			if j := s.jobs[r.ID]; j != nil {
				j.Status = StatusDone
				j.Finished = r.Time
				if r.Summary != nil {
					j.Summary = *r.Summary
				}
				j.Cached = r.Cached
			}
		case "failed":
			if j := s.jobs[r.ID]; j != nil {
				j.Status = StatusFailed
				j.Finished = r.Time
				j.Err = r.Err
			}
		case "interrupted":
			if j := s.jobs[r.ID]; j != nil {
				j.Status = StatusInterrupted
				j.Finished = r.Time
				j.Err = "interrupted by daemon restart"
			}
		case "evict":
			delete(s.jobs, r.ID)
			s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == r.ID })
		}
	}

	requeue := func(j *Job) {
		select {
		case s.queue <- j:
			j.Status = StatusQueued
			j.Err = ""
			j.Started, j.Finished = time.Time{}, time.Time{}
			s.recovered.Inc()
			s.log.Info("job recovered", "run_id", j.ID, "workload", j.workloadName())
		default:
			j.Status = StatusFailed
			j.Finished = time.Now()
			j.Err = "dropped at recovery: queue full"
			s.journal(journalRecord{Event: "failed", Time: j.Finished, ID: j.ID, Err: j.Err})
			s.log.Warn("recovered job dropped: queue full", "run_id", j.ID)
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.Status {
		case StatusDone:
			arts, err := s.jrn.loadArtifacts(id)
			if err != nil {
				j.Status = StatusFailed
				j.Err = fmt.Sprintf("artifacts lost at recovery: %v", err)
				s.log.Warn("done job lost artifacts", "run_id", id, "err", err)
				continue
			}
			j.artifacts = arts
		case StatusFailed:
			// A failed job may have persisted a post-mortem; reload it
			// tolerantly — most failures leave no artifacts at all.
			if arts, err := s.jrn.loadArtifacts(id); err == nil && len(arts) > 0 {
				j.artifacts = arts
			}
		case StatusRunning:
			// Orphaned mid-run by the crash: the journal has a start
			// without a terminal event.
			j.Status = StatusInterrupted
			j.Finished = time.Now()
			j.Err = "interrupted by daemon restart"
			s.interrupted.Inc()
			s.journal(journalRecord{Event: "interrupted", Time: j.Finished, ID: id})
			s.log.Warn("job interrupted by restart", "run_id", id)
			if s.cfg.RequeueInterrupted {
				requeue(j)
			}
		case StatusQueued:
			requeue(j)
		}
	}
}

// journal appends rec when persistence is enabled and feeds terminal
// records into the audit chain, persisting the Merkle root record when
// a batch fills. Append failures are logged, not fatal: the daemon
// prefers serving with a degraded journal over refusing work.
func (s *Server) journal(rec journalRecord) {
	if s.jrn == nil {
		return
	}
	audited := s.aud != nil && terminalEvent(rec.Event)
	if audited {
		s.audMu.Lock()
		defer s.audMu.Unlock()
	}
	line, err := s.jrn.append(rec)
	if err != nil {
		s.log.Error("journal append failed", "event", rec.Event, "run_id", rec.ID, "err", err)
		return
	}
	if !audited {
		return
	}
	if audRec, sealed := s.aud.observe(rec.ID, line); sealed {
		if _, err := s.jrn.append(audRec); err != nil {
			s.log.Error("audit record append failed", "root", audRec.Root[:12], "err", err)
		} else {
			s.log.Info("audit root sealed", "root", audRec.Root[:12],
				"first", audRec.First, "count", audRec.Count)
		}
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting new jobs, waits for queued and in-flight jobs
// to finish (or ctx to expire), and stops the workers. After Drain the
// server still serves reads (/metrics, job status and artifacts), but
// every submission is rejected and /readyz reports 503.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	s.log.Info("msd draining", "queued", len(s.queue))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Batch dispatchers finish their in-flight points too: partial
		// batch results are journaled per point, so even a drain that
		// times out here leaves every completed point recoverable.
		s.batchWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.jrn != nil {
			// Seal the partial audit batch so every terminal record of a
			// cleanly drained daemon is covered by a persisted root.
			if s.aud != nil {
				if audRec, sealed := s.aud.flush(); sealed {
					if _, err := s.jrn.append(audRec); err != nil {
						s.log.Error("audit flush failed", "err", err)
					}
				}
			}
			_ = s.jrn.Close()
		}
		if s.hist != nil {
			_ = s.hist.Close()
		}
		s.log.Info("msd drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("msd drain: %w", ctx.Err())
	}
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/matrix", s.handleSubmitMatrix)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	// The literal "progress" segment takes precedence over the
	// {artifact} wildcard under Go 1.22 routing, so an artifact named
	// "progress" can never shadow the live view (and vice versa).
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /api/v1/jobs/{id}/{artifact}", s.handleArtifact)
	metricsHandler := export.MetricsHandler(s.reg)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Freshen the scrape-time gauges before rendering. Queue depth
		// is read under the server lock — where queue slots are
		// reserved — so a scrape sees a consistent point-in-time value
		// instead of racing the unlocked Set calls submit and dequeue
		// used to make.
		s.mu.Lock()
		s.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
		s.queueOldest.Set(s.oldestQueuedAge().Seconds())
		s.workersHealthy.Set(float64(len(s.members.Healthy())))
		s.heartbeatAge.Set(s.members.MaxHeartbeatAge().Seconds())
		metricsHandler.ServeHTTP(w, r)
	}))
	mux.HandleFunc("GET /api/v1/audit", s.handleAudit)
	mux.HandleFunc("GET /api/v1/history", s.handleHistory)
	mux.HandleFunc("POST /api/v1/diff", s.handleDiff)
	// Any daemon can execute a shard on behalf of a coordinator; the
	// coordination surfaces themselves (registration, batches, the
	// shared verdict store) are gated on Config.Coordinator.
	mux.HandleFunc("POST /api/v1/cluster/execute", s.handleClusterExecute)
	if s.cfg.Coordinator {
		mux.HandleFunc("POST /api/v1/cluster/register", s.handleClusterRegister)
		mux.HandleFunc("POST /api/v1/cluster/heartbeat", s.handleClusterHeartbeat)
		mux.HandleFunc("GET /api/v1/cluster/workers", s.handleClusterWorkers)
		mux.HandleFunc("POST /api/v1/batch", s.handleBatchSubmit)
		mux.HandleFunc("GET /api/v1/batch", s.handleBatchList)
		mux.HandleFunc("GET /api/v1/batch/{id}", s.handleBatchStatus)
		mux.HandleFunc("GET /api/v1/cache/{key}", s.handleCacheGet)
		mux.HandleFunc("PUT /api/v1/cache/{key}", s.handleCachePut)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submit(w, r, "")
}

// handleSubmitMatrix is the grid-sweep endpoint: one program fanned out
// across every cell of a configuration grid, aggregated into a single
// job with matrix artifacts. The payload is a JobRequest whose matrix
// field defaults to the default grid when absent.
func (s *Server) handleSubmitMatrix(w http.ResponseWriter, r *http.Request) {
	s.submit(w, r, "default")
}

// submit decodes and validates a job request — an absent matrix field
// takes defaultMatrix — admits it into the job queue and answers the
// submission request.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, defaultMatrix string) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req.Matrix = cmp.Or(req.Matrix, defaultMatrix)
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Inc()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	s.nextID++
	job := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Req:       req,
		Status:    StatusQueued,
		Submitted: time.Now(),
	}
	// Reserve the queue slot while holding the lock: draining flips
	// before close(queue), so a reserved send cannot hit a closed
	// channel.
	select {
	case s.queue <- job:
	default:
		retryAfter := s.retryAfterLocked()
		s.mu.Unlock()
		s.rejected.Inc()
		// Shed load gracefully: tell the client when a slot should
		// free up, from the queue depth and observed job durations.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusServiceUnavailable, "job queue full (%d queued)", s.cfg.QueueSize)
		return
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	// Journal the submit before acknowledging, still under the lock so
	// journal order matches submission order.
	s.journal(journalRecord{Event: "submit", Time: job.Submitted, ID: job.ID, Req: &job.Req})
	evicted := s.evictLocked("")
	view := job.view()
	s.mu.Unlock()

	s.dropEvicted(evicted)
	s.submitted.Inc()
	s.log.Info("job submitted", "run_id", view.ID, "workload", view.Workload)
	writeJSON(w, http.StatusAccepted, view)
}

// evictLocked drops the oldest finished jobs beyond the retention
// bound, returning the evicted IDs so the caller can clean up their
// on-disk artifacts outside the lock. Queued and running jobs are never
// evicted — a job's artifacts are flushed to disk before its status
// turns terminal, so an evictable job is never still being written.
// keepID (completion-time eviction passes the job that just finished)
// is also spared: a fresh verdict must stay fetchable at least until
// the next submission or completion, not vanish the instant it lands.
func (s *Server) evictLocked(keepID string) []string {
	var evicted []string
	s.order, evicted = evictOldest(s.order, s.jobs, s.cfg.MaxJobs, keepID, func(j *Job) bool {
		return j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusInterrupted
	})
	return evicted
}

// evictOldest drops the oldest finished entries of a job or batch table
// beyond the retention bound, sparing keepID, and returns the surviving
// order and the evicted IDs.
func evictOldest[T any](order []string, table map[string]T, bound int, keepID string, finished func(T) bool) (kept, evicted []string) {
	excess := len(order) - bound
	if excess <= 0 {
		return order, nil
	}
	kept = order[:0]
	for _, id := range order {
		if excess > 0 && id != keepID && finished(table[id]) {
			delete(table, id)
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept, evicted
}

// dropEvicted journals evictions of jobs and batches and removes the
// evicted jobs' artifact directories (batches have none); called
// without the server lock held.
func (s *Server) dropEvicted(ids []string) {
	for _, id := range ids {
		s.journal(journalRecord{Event: "evict", Time: time.Now(), ID: id})
		if s.jrn != nil {
			if err := s.jrn.removeJob(id); err != nil {
				s.log.Warn("evicted job dir not removed", "run_id", id, "err", err)
			}
		}
	}
}

// retryAfterLocked estimates, in whole seconds, when a queue slot
// should free: queued work divided by worker throughput, using the
// exponentially weighted average job duration (1s before any job has
// finished). The estimate is capped at Config.MaxRetryAfter — during a
// long stall (a deep queue of slow jobs) an uncapped hint would tell
// clients to go away for hours, when what they should do is probe
// again within bounded time.
func (s *Server) retryAfterLocked() int {
	avg := s.ewmaJobSec
	if avg <= 0 {
		avg = 1
	}
	secs := int(math.Ceil(avg * float64(len(s.queue)+1) / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if cap := s.cfg.MaxRetryAfter; cap > 0 {
		if max := int(cap / time.Second); max >= 1 && secs > max {
			secs = max
		}
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// ?label= narrows the listing to one code state's jobs — the
	// per-label view the diff workflow reads.
	label := r.URL.Query().Get("label")
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if label != "" && j.Req.Label != label {
			continue
		}
		views = append(views, j.view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var view jobView
	if ok {
		view = job.view()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleAudit serves the tamper-evidence surface: the chained Merkle
// roots over the journal's terminal records, and — with ?job=<id> —
// the inclusion proof of that job's audited verdict. Clients that
// record the chain value externally can later hand it to
// `msd -audit-verify -audit-head` to detect tail truncation.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.aud == nil {
		writeError(w, http.StatusNotFound, "auditing disabled: daemon runs without a journal")
		return
	}
	jobID := r.URL.Query().Get("job")
	view, ok := s.aud.view(jobID)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q has no audited terminal record", jobID)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// oldestQueuedAge reports how long the longest-waiting queued job has
// been waiting, or zero when the queue is empty. Exposed as the
// msd_queue_oldest_age_seconds gauge, refreshed at scrape time.
func (s *Server) oldestQueuedAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest time.Time
	for _, id := range s.order {
		j := s.jobs[id]
		if j.Status == StatusQueued && (oldest.IsZero() || j.Submitted.Before(oldest)) {
			oldest = j.Submitted
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var view progressView
	if ok {
		view = job.progress()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("artifact")
	s.mu.Lock()
	job, ok := s.jobs[id]
	var status JobStatus
	var art artifact
	var have bool
	if ok {
		status = job.Status
		art, have = job.artifacts[name]
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case status == StatusQueued || status == StatusRunning:
		writeError(w, http.StatusConflict, "job %s is %s; artifacts appear when it is done", id, status)
	case !have:
		writeError(w, http.StatusNotFound, "job %s has no artifact %q", id, name)
	default:
		w.Header().Set("Content-Type", art.contentType)
		_, _ = w.Write(art.data)
	}
}

// worker drains the job queue until Drain closes it.
func (s *Server) worker(n int) {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
	s.log.Debug("msd worker exiting", "worker", n)
}

func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	job.Status = StatusRunning
	job.Started = time.Now()
	// Arm the live progress probe before the verification can start;
	// its cycle deltas also feed the daemon-wide cycle counter.
	job.probe = core.NewRunProbe()
	job.probe.SetCycleSink(func(d int64) {
		if d > 0 {
			s.jobCycles.Add(uint64(d))
		}
	})
	s.mu.Unlock()
	s.journal(journalRecord{Event: "start", Time: job.Started, ID: job.ID})
	s.inflight.Add(1)
	s.waitSeconds.Observe(job.Started.Sub(job.Submitted).Seconds())
	s.log.Info("job started", "run_id", job.ID, "workload", job.workloadName())

	var (
		arts   map[string]artifact
		err    error
		sum    core.Summary
		cached bool
	)
	var key string
	if s.cache != nil {
		key = jobCacheKey(job.Req)
	}
	if key != "" {
		if cj, ok := cacheLoad(s, key, decodeCachedJob); ok {
			arts, sum, cached = cj.arts, cj.sum, true
			s.cacheHits.Inc()
			s.log.Info("job served from cache", "run_id", job.ID, "cache_key", key[:12])
		} else {
			s.cacheMisses.Inc()
		}
	}
	switch {
	case cached:
	case key != "":
		// Deduplicate identical in-flight jobs: followers block on the
		// leader's computation and share its artifact set instead of
		// simulating the same tuple twice.
		v, ferr, shared := s.flight.Do(key, func() (any, error) {
			a, su, cerr := s.computeJob(job)
			if cerr != nil {
				return nil, cerr
			}
			return &cachedJob{arts: a, sum: su}, nil
		})
		err = ferr
		if err == nil {
			cj := v.(*cachedJob)
			arts, sum = cj.arts, cj.sum
			if shared {
				cached = true
				s.deduped.Inc()
				s.log.Info("job deduplicated onto identical in-flight job",
					"run_id", job.ID, "cache_key", key[:12])
			} else {
				s.cacheStore(key, cj, cj.encode)
			}
		}
	default:
		arts, sum, err = s.computeJob(job)
	}
	// Flush the artifacts to stable storage BEFORE anything marks the
	// job finished: eviction only touches terminal jobs, so a job whose
	// artifacts are still being written can never be evicted, and a
	// recovering daemon only sees a "done" journal record after its
	// artifacts are durable.
	if err == nil && s.jrn != nil {
		if werr := s.jrn.writeArtifacts(job.ID, arts); werr != nil {
			err = fmt.Errorf("persist artifacts: %w", werr)
		}
	}
	if err != nil {
		// A failed run may still leave evidence: the flight-recorder
		// post-mortem rides along as a downloadable artifact, persisted
		// before the failure is journaled so recovery can reload it.
		arts = postmortemArtifacts(err)
		if len(arts) > 0 && s.jrn != nil {
			if werr := s.jrn.writeArtifacts(job.ID, arts); werr != nil {
				s.log.Warn("postmortem not persisted", "run_id", job.ID, "err", werr)
			}
		}
	}

	finished := time.Now()
	if err != nil {
		s.journal(journalRecord{Event: "failed", Time: finished, ID: job.ID, Err: err.Error()})
	} else {
		s.journal(journalRecord{Event: "done", Time: finished, ID: job.ID, Summary: &sum, Cached: cached})
		kind, art := history.KindReport, arts["digest"]
		if job.Req.Matrix != "" {
			kind, art = history.KindMatrix, arts["matrix"]
		}
		s.recordHistory(history.Record{
			Label: job.Req.Label, Workload: job.workloadName(), Kind: kind, Summary: sum,
			ElapsedMillis: finished.Sub(job.Started).Milliseconds(),
		}, art.data, job.ID)
	}

	s.mu.Lock()
	job.Finished = finished
	job.artifacts = arts
	if err != nil {
		job.Status = StatusFailed
		job.Err = err.Error()
	} else {
		job.Status = StatusDone
		job.Summary = sum
		job.Cached = cached
	}
	dur := job.Finished.Sub(job.Started)
	const alpha = 0.3 // favour recent jobs without whiplash
	if s.ewmaJobSec == 0 {
		s.ewmaJobSec = dur.Seconds()
	} else {
		s.ewmaJobSec = alpha*dur.Seconds() + (1-alpha)*s.ewmaJobSec
	}
	// Other terminal jobs may now be past the retention bound: evicting
	// here (not only on submit) lets a quiesced daemon converge to
	// MaxJobs instead of holding excess finished jobs until the next
	// submission. The just-finished job itself is spared so its verdict
	// stays fetchable.
	evicted := s.evictLocked(job.ID)
	s.mu.Unlock()
	s.dropEvicted(evicted)

	s.inflight.Add(-1)
	s.jobSeconds.Observe(dur.Seconds())
	if err != nil {
		s.failed.Inc()
		s.log.Error("job failed", "run_id", job.ID, "err", err, "dur", dur)
		return
	}
	s.completed.Inc()
	s.log.Info("job done", "run_id", job.ID, "leaky", job.Leaky,
		"leaky_units", job.LeakyUnits, "dur", dur)
}

// computeJob runs the job's verification (single or grid sweep) under
// the panic guard and renders its artifact set — the cacheable unit of
// work. Both kinds parallelise their runs (Parallel 0 means one
// simulation per CPU).
func (s *Server) computeJob(job *Job) (map[string]artifact, core.Summary, error) {
	w, opts, grid, err := job.Req.resolve()
	if err != nil {
		return nil, core.Summary{}, err
	}
	opts = s.execOptions(opts, job.ID)
	opts.Parallel = cmp.Or(job.Req.Parallel, core.ParallelAuto)
	opts.Probe = job.probe
	if job.Req.Matrix != "" {
		mo := core.MatrixOptions{Options: opts, Grid: grid, CellParallel: job.Req.CellParallel}
		// Matrix artifacts render no stage breakdown, so the untraced
		// timing pass would only double every cell's simulation.
		mo.MeasureStages = false
		// The live probe is per-verification state; share it only when the
		// cells run sequentially, where it reports the current cell's runs.
		if mo.CellParallel > 1 {
			mo.Probe = nil
		}
		var m *core.Matrix
		if err := s.guard(job.ID, func() (err error) {
			if s.cfg.verifyMatrix != nil {
				m, err = s.cfg.verifyMatrix(job)
			} else {
				m, err = core.VerifyMatrix(w, mo)
			}
			return err
		}); err != nil {
			return nil, core.Summary{}, err
		}
		arts, err := renderMatrixArtifacts(m)
		return arts, m.Summary(), err
	}
	opts.FlightRecorderFrames = s.cfg.FlightFrames
	var rep *core.Report
	if err := s.guard(job.ID, func() (err error) {
		if s.cfg.verify != nil {
			rep, err = s.cfg.verify(job)
		} else {
			rep, err = core.Verify(w, opts)
		}
		return err
	}); err != nil {
		return nil, core.Summary{}, err
	}
	arts, err := renderArtifacts(rep, job.Req.HeatmapWindows)
	return arts, rep.Summary(), err
}

// execOptions stamps the daemon's execution options onto a resolved
// verification: the stall watchdog, the telemetry sinks and the run ID
// every log record and span carries.
func (s *Server) execOptions(opts core.Options, runID string) core.Options {
	opts.Watchdog = s.cfg.Watchdog
	opts.Metrics = s.reg
	opts.Logger = s.log
	opts.RunID = runID
	return opts
}

// guard runs a verification with panic containment: a panic becomes an
// error carrying a core.PanicError with the stack, instead of killing
// the worker — and with it the daemon.
func (s *Server) guard(runID string, verify func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			err = &core.PanicError{Value: r, Stack: debug.Stack()}
			s.log.Error("verification panicked", "run_id", runID, "panic", r)
		}
	}()
	return verify()
}
