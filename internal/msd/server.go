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
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"microsampler/internal/cache"
	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/telemetry"
	"microsampler/internal/telemetry/export"
	"microsampler/internal/version"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the number of jobs verified concurrently (default 1).
	// Each job additionally runs its simulations on one worker per CPU
	// (core.ParallelAuto).
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
	// FlightFrames arms a per-run flight recorder of the last N cycles;
	// failed jobs then expose a "postmortem" Perfetto artifact showing
	// the final approach. Zero disables the recorder.
	FlightFrames int

	// CacheEntries enables the content-addressed verdict cache: up to
	// this many finished jobs' artifact sets are retained (LRU) keyed by
	// the canonical hash of (program, config, seed range,
	// detection-relevant options). Admission answers a resubmission with
	// the same key at once, done with the identical bytes, and makes a
	// twin of a queued or running job its follower: neither takes a queue
	// slot or a worker. Zero disables caching.
	CacheEntries int
	// CacheDir is the verdict store's fsync'd disk layer, where cached
	// verdicts survive a restart. A journaled daemon always has one
	// (default <JournalDir>/cache): it holds finished jobs' artifacts.
	// Without a journal it needs CacheEntries positive.
	CacheDir string

	// HistoryDir is ignored.
	//
	// Deprecated: a journaled daemon serves GET /api/v1/history and
	// POST /api/v1/diff from its journal and verdict store.
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
	// HedgeAfter is the straggler threshold: a dispatch outliving it
	// gets a hedged duplicate on the next-ranked worker, first result
	// wins (default 30s; negative disables hedging).
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
	// write-ahead journal under this directory; a terminal record names
	// the job's artifacts by their key in CacheDir. A daemon restarted
	// over the same directory rebuilds its job table from the journal:
	// jobs queued at the crash are re-enqueued, jobs mid-run are marked
	// interrupted (see RequeueInterrupted), finished jobs reload their
	// artifacts. Empty disables persistence; the daemon is then purely
	// in-memory.
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
	// wg counts the workers and the submissions finishing a cache hit,
	// so Drain outlasts both.
	wg sync.WaitGroup

	jrn *journal // nil when persistence is disabled
	aud *auditor // set exactly when jrn is
	// audMu orders terminal journal lines, and the audit records they
	// seal, the same in the journal as in the auditor.
	audMu sync.Mutex

	// cache is the verdict store's memory layer (nil with caching off);
	// cacheDisk its optional persistent layer; flight deduplicates
	// identical in-flight point verdicts onto one computation.
	cache     *cache.LRU
	cacheDisk *cache.Disk
	flight    cache.Group

	// Cluster state: the worker failure detector, the HTTP client
	// batches dispatch (and workers upload) through, and the tracked
	// batches. batchWG counts running batch dispatchers so Drain can
	// wait them out.
	members     *cluster.Membership
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
	// leaders maps a cache key to the queued or running job computing
	// it; admission makes an identical job that job's follower.
	leaders map[string]*Job
	// ewmaJobSec tracks typical worker-run job duration (exponentially
	// weighted) to compute the Retry-After hint when the queue saturates.
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
		leaders:     make(map[string]*Job),
		batches:     make(map[string]*Batch),
		members:     cluster.NewMembership(cfg.WorkerTTL),
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
	if cfg.CacheDir == "" && cfg.JournalDir != "" {
		cfg.CacheDir = filepath.Join(cfg.JournalDir, "cache")
	}
	if cfg.CacheEntries > 0 {
		s.cache = cache.NewLRU(cfg.CacheEntries)
	}
	if cfg.CacheDir != "" && (s.cache != nil || cfg.JournalDir != "") {
		disk, err := cache.NewDisk(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("msd: cache dir: %w", err)
		}
		s.cacheDisk = disk
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
		case "done", "failed", "interrupted":
			// The terminal events are named after the statuses they set. A
			// job finished without running journals no start.
			if j := s.jobs[r.ID]; j != nil {
				j.Status, j.Err, j.Cached, j.key = JobStatus(r.Event), r.Err, r.Cached, r.Key
				j.Started, j.Finished = cmp.Or(j.Started, r.Time), r.Time
				if r.Summary != nil {
					j.Summary = *r.Summary
				}
				if r.Event == "interrupted" {
					j.Err = "interrupted by daemon restart"
				}
			}
		case "evict":
			delete(s.jobs, r.ID)
			s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == r.ID })
		}
	}

	// Jobs to re-admit are collected first: finishing one at admission
	// may evict, which rewrites s.order.
	var requeue []*Job
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.Status {
		case StatusDone, StatusFailed:
			// Most failed jobs left no post-mortem to reload.
			arts, err := s.loadStored(j)
			if err != nil && j.Status == StatusDone {
				j.Status = StatusFailed
				j.Err = fmt.Sprintf("artifacts lost at recovery: %v", err)
				s.log.Warn("done job lost artifacts", "run_id", id, "err", err)
				continue
			}
			j.artifacts = arts
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
				requeue = append(requeue, j)
			}
		case StatusQueued:
			requeue = append(requeue, j)
		}
	}
	for _, j := range requeue {
		// An interrupted job keeps its journaled start until it runs
		// again, the start a later restart reads back if it never does.
		j.Status, j.Err, j.Finished = StatusQueued, "", time.Time{}
		var hit *cachedJob
		err := j.resolve()
		if err == nil {
			s.mu.Lock()
			hit, err = s.admitLocked(j)
			s.mu.Unlock()
		}
		if err != nil {
			s.finish(j, nil, "", fmt.Errorf("dropped at recovery: %w", err), true)
			continue
		}
		s.recovered.Inc()
		s.log.Info("job recovered", "run_id", j.ID, "workload", j.workloadName())
		if hit != nil {
			s.finish(j, hit, j.key, nil, true)
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
	audited := terminalEvent(rec.Event)
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
			if audRec, sealed := s.aud.flush(); sealed {
				if _, err := s.jrn.append(audRec); err != nil {
					s.log.Error("audit flush failed", "err", err)
				}
			}
			_ = s.jrn.Close()
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

// submit decodes and resolves a job request — an absent matrix field
// takes defaultMatrix — admits it and answers the submission request
// with the job's view: done already when admission found it cached.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, defaultMatrix string) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req.Matrix = cmp.Or(req.Matrix, defaultMatrix)
	req.Label = cmp.Or(req.Label, version.DefaultLabel())
	job := &Job{Req: req, Status: StatusQueued}
	if err := job.resolve(); err != nil {
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
	job.ID = fmt.Sprintf("job-%d", s.nextID)
	job.Submitted = time.Now()
	hit, err := s.admitLocked(job)
	if err != nil {
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
	if hit != nil {
		s.wg.Add(1) // Drain waits for the finish; it is not draining yet
	}
	s.mu.Unlock()

	s.dropEvicted(evicted)
	s.submitted.Inc()
	s.log.Info("job submitted", "run_id", job.ID, "workload", job.workloadName())
	if hit != nil {
		s.finish(job, hit, job.key, nil, true)
		s.wg.Done()
		s.mu.Lock()
		view = job.view()
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusAccepted, view)
}

// errQueueFull refuses a job that needs a queue slot when none is free.
var errQueueFull = errors.New("queue full")

// admitLocked decides the path of a job whose request is resolved: with
// caching on, a cache hit (memory, then disk) is returned for the
// caller to finish the job with and a twin of a queued or running job
// becomes its follower; anything else is queued, or refused with
// errQueueFull. The caller holds s.mu and has checked s.draining, so the
// queue is open.
func (s *Server) admitLocked(job *Job) (*cachedJob, error) {
	if s.cache != nil {
		if cj, ok := cacheLoad(s, job.key, decodeCachedJob); ok {
			s.cacheHits.Inc()
			s.log.Info("job served from cache", "run_id", job.ID, "cache_key", job.key[:12])
			return cj, nil
		}
		s.cacheMisses.Inc()
		if lead := s.leaders[job.key]; lead != nil {
			lead.followers = append(lead.followers, job)
			s.log.Info("job follows identical in-flight job", "run_id", job.ID, "leader", lead.ID)
			return nil, nil
		}
	}
	select {
	case s.queue <- job:
	default:
		return nil, errQueueFull
	}
	if s.cache != nil {
		s.leaders[job.key] = job
	}
	return nil, nil
}

// evictLocked drops the oldest finished jobs beyond the retention
// bound, returning the evicted IDs so the caller can journal them
// outside the lock. Queued and running jobs are never evicted — a job's
// artifacts are filed in the store before its status turns terminal,
// so an evictable job is never still being written.
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
// artifact directory a keyless journal record left (batches have none);
// the store's blobs stay, shared by every job with their key. Called
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
	serveView(s, w, s.jobs, "job", r.PathValue("id"), (*Job).view)
}

// serveView answers the view of one job or batch, snapshotted under
// s.mu, or 404 when the table has no such entry.
func serveView[T, V any](s *Server, w http.ResponseWriter, table map[string]T, kind, id string, view func(T) V) {
	s.mu.Lock()
	e, ok := table[id]
	var v V
	if ok {
		v = view(e)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown %s %q", kind, id)
		return
	}
	writeJSON(w, http.StatusOK, v)
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
	// s.order is submission order: the first queued job waited longest.
	for _, id := range s.order {
		if j := s.jobs[id]; j.Status == StatusQueued {
			return time.Since(j.Submitted)
		}
	}
	return 0
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	serveView(s, w, s.jobs, "job", r.PathValue("id"), (*Job).progress)
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

// runJob verifies a queued job, files the result in the verdict store
// (a failed job's postmortem, if any) and finishes the job and its
// followers with it.
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

	cj, err := s.computeJob(job)
	key := job.key
	if err == nil {
		err = s.cacheStore(key, cj, cj.encode)
	}
	if err != nil {
		cj, key = s.postmortem(job.ID, err)
	}
	// Retire the leader only after the store: a twin admitted from here
	// on hits the cache; one admitted before is already a follower.
	s.mu.Lock()
	delete(s.leaders, job.key)
	followers := job.followers
	s.mu.Unlock()
	s.inflight.Add(-1)

	s.finish(job, cj, key, err, false)
	for _, f := range followers {
		if err == nil {
			s.deduped.Inc()
		}
		s.finish(f, cj, key, err, true)
	}
}

// finish ends a job on every path — worker-run, cache hit, follower or
// dropped at recovery — with its artifact set and verdict or its error
// and postmortem (cj, nil when there is none): it journals, publishes
// the status and evicts. It writes no artifact: the terminal record
// names cj's stored blob by key ("" when none). cached marks a job that
// ran no verification of its own; only the others feed the Retry-After
// estimate of worker throughput.
func (s *Server) finish(job *Job, cj *cachedJob, key string, err error, cached bool) {
	if cj == nil {
		cj = &cachedJob{}
	}
	arts, sum := cj.arts, cj.sum

	// A job finished without running starts as it finishes, the instant
	// recovery reads back from its terminal record.
	finished := time.Now()
	started := cmp.Or(job.Started, finished)
	if err != nil {
		s.journal(journalRecord{Event: "failed", Time: finished, ID: job.ID, Err: err.Error(), Key: key})
	} else {
		s.journal(journalRecord{Event: "done", Time: finished, ID: job.ID, Summary: &sum, Cached: cached, Key: key})
	}

	s.mu.Lock()
	job.Started, job.Finished = started, finished
	job.artifacts = arts
	if err != nil {
		job.Status = StatusFailed
		job.Err = err.Error()
	} else {
		job.Status = StatusDone
		job.Summary = sum
		job.Cached = cached
	}
	dur := finished.Sub(started)
	if !cached {
		const alpha = 0.3 // favour recent jobs without whiplash
		if s.ewmaJobSec == 0 {
			s.ewmaJobSec = dur.Seconds()
		} else {
			s.ewmaJobSec = alpha*dur.Seconds() + (1-alpha)*s.ewmaJobSec
		}
	}
	// Other terminal jobs may now be past the retention bound: evicting
	// here (not only on submit) lets a quiesced daemon converge to
	// MaxJobs instead of holding excess finished jobs until the next
	// submission. The just-finished job itself is spared so its verdict
	// stays fetchable.
	evicted := s.evictLocked(job.ID)
	s.mu.Unlock()
	s.dropEvicted(evicted)

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
// work. Both kinds run their simulations on one worker per CPU; a
// matrix job verifies its cells in sequence, sharing the live probe.
func (s *Server) computeJob(job *Job) (*cachedJob, error) {
	opts := s.execOptions(job.opts, job.ID)
	opts.Parallel = core.ParallelAuto
	opts.Probe = job.probe
	if job.Req.Matrix != "" {
		mo := core.MatrixOptions{Options: opts, Grid: job.grid}
		// Matrix artifacts render no stage breakdown, so the untraced
		// timing pass would only double every cell's simulation.
		mo.MeasureStages = false
		var m *core.Matrix
		if err := s.guard(job.ID, func() (err error) {
			if s.cfg.verifyMatrix != nil {
				m, err = s.cfg.verifyMatrix(job)
			} else {
				m, err = core.VerifyMatrix(job.w, mo)
			}
			return err
		}); err != nil {
			return nil, err
		}
		arts, err := renderMatrixArtifacts(m)
		return &cachedJob{arts, m.Summary()}, err
	}
	opts.FlightRecorderFrames = s.cfg.FlightFrames
	var rep *core.Report
	if err := s.guard(job.ID, func() (err error) {
		if s.cfg.verify != nil {
			rep, err = s.cfg.verify(job)
		} else {
			rep, err = core.Verify(job.w, opts)
		}
		return err
	}); err != nil {
		return nil, err
	}
	arts, err := renderArtifacts(rep, job.Req.HeatmapWindows)
	return &cachedJob{arts, rep.Summary()}, err
}

// execOptions stamps the daemon's execution options onto a resolved
// verification: the telemetry sinks, the run ID every log record and
// span carries, and in-run provenance, because every job and point
// renders provenance or a digest that reads it, which a replay would
// simulate again.
func (s *Server) execOptions(opts core.Options, runID string) core.Options {
	opts.Provenance = true
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
