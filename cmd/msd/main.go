// Command msd is the MicroSampler daemon: a long-running HTTP service
// that runs verification jobs on a bounded worker pool and exposes the
// framework's observability surfaces.
//
// Usage:
//
//	msd -addr :8844 -workers 2 -queue 32
//	msd -log-format json -log-level debug
//
// Endpoints:
//
//	POST /api/v1/jobs                    submit a job ({"workload":"ME-NAIVE"} or {"source":"..."})
//	GET  /api/v1/jobs                    list tracked jobs
//	GET  /api/v1/jobs/{id}               job status and verdict
//	GET  /api/v1/jobs/{id}/progress      live progress (stage, simulated cycles, runs)
//	GET  /api/v1/jobs/{id}/report        JSON report artifact
//	GET  /api/v1/jobs/{id}/trace         Perfetto trace (open in ui.perfetto.dev)
//	GET  /api/v1/jobs/{id}/heatmap       leakage heatmap JSON
//	GET  /api/v1/jobs/{id}/heatmap.html  leakage heatmap as self-contained HTML
//	GET  /api/v1/jobs/{id}/provenance    instruction-level leakage provenance JSON
//	GET  /api/v1/jobs/{id}/provenance.html  provenance as self-contained HTML
//	GET  /api/v1/jobs/{id}/postmortem    flight-recorder Perfetto dump (failed jobs)
//	GET  /api/v1/history                 labeled run-history records (?label=, ?workload=)
//	POST /api/v1/diff                    verdict diff between two labels ({"from":"A","to":"B"})
//	POST /api/v1/cluster/execute         run one point on this daemon (any msd is a capable worker)
//	GET  /metrics                        Prometheus text exposition
//	GET  /healthz, /readyz               liveness / readiness
//	GET  /debug/pprof/                   Go profiling
//
// Coordinator-only endpoints (-coordinator):
//
//	POST /api/v1/cluster/register        worker self-registration
//	POST /api/v1/cluster/heartbeat       worker liveness
//	GET  /api/v1/cluster/workers         registered worker set
//	POST /api/v1/batch                   submit a point batch ({"points":[{"workload":"ME-NAIVE","matrix":"default"}]})
//	GET  /api/v1/batch                   list batches
//	GET  /api/v1/batch/{id}              batch status and per-point results
//	GET  /api/v1/cache/{key}             shared verdict store (cross-node cache fill)
//	PUT  /api/v1/cache/{key}             worker verdict upload
//
// A verification cluster is one coordinator plus any number of workers:
//
//	msd -coordinator -addr :8844 -journal-dir /var/lib/msd
//	msd -addr :8845 -worker-of http://coordinator:8844
//	msd -addr :8846 -worker-of http://coordinator:8844
//
// The coordinator shards batch points across healthy workers by
// rendezvous-hashing their canonical cache keys; a worker that misses
// -heartbeat beats for -worker-ttl is marked dead and its in-flight
// shards are reassigned (a point the dying worker already uploaded is a
// cache hit, not a re-simulation); stragglers past -hedge-after get a
// hedged duplicate, first result wins;
// with zero healthy workers the coordinator degrades to local execution
// and flags the batch rather than failing it.
//
// SIGINT/SIGTERM drains in-flight jobs (bounded by -drain-timeout)
// before exiting; a second SIGINT/SIGTERM forces immediate exit.
//
// With -journal-dir set, every job transition is appended to a fsynced
// write-ahead journal, and each finished job's artifacts are filed once
// in the verdict store's disk layer (-cache-dir, default
// <journal-dir>/cache), which the job's journal record names by key; a
// daemon restarted over the same directory re-enqueues jobs that were
// queued at the crash and marks jobs that were mid-run as interrupted
// (-recover re-enqueues those too):
//
//	msd -journal-dir /var/lib/msd -recover
//
// With -cache set, finished jobs' verdicts are retained in a
// content-addressed cache and identical resubmissions are served the
// same bytes without simulating (add -cache-dir to an unjournaled
// daemon for a disk layer that survives restarts). Journaled daemons
// additionally chain terminal journal records into Merkle roots
// (GET /api/v1/audit); the journal can be checked offline:
//
//	msd -journal-dir /var/lib/msd -audit-verify
//	msd -journal-dir /var/lib/msd -audit-verify -audit-head <chain-hex>
//
// A journaled daemon lists its verdicts by label (GET /api/v1/history)
// and serves verdict diffs between labels (POST /api/v1/diff), both read
// from the journal and the verdict store; clean↔leaky flips surface in
// the msd_verdict_flips_total counter.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/msd"
	"microsampler/internal/version"
)

func main() {
	ctx, stop := signalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "msd:", err)
		os.Exit(1)
	}
}

// signalContext cancels the returned context on the first SIGINT or
// SIGTERM and force-exits the process on the second. signal.NotifyContext
// would swallow the repeat while Drain waits out -drain-timeout; an
// operator mashing Ctrl-C during a long drain means "now", not "in two
// minutes".
func signalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		cancel()
		sig := <-ch
		fmt.Fprintf(os.Stderr, "msd: second signal (%v), forcing exit\n", sig)
		os.Exit(1)
	}()
	return ctx, func() {
		signal.Stop(ch)
		cancel()
	}
}

// run starts the daemon and serves until ctx is cancelled. When ready
// is non-nil it receives the bound listen address once the server
// accepts connections (the smoke test uses it with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("msd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8844", "HTTP listen address")
		workers       = fs.Int("workers", 1, "concurrent verification jobs")
		queue         = fs.Int("queue", 16, "queued-job capacity (submissions beyond it get 503)")
		maxJobs       = fs.Int("max-jobs", 64, "finished jobs and finished batches retained in memory (each)")
		drainTimeout  = fs.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on shutdown")
		journalDir    = fs.String("journal-dir", "", "directory for the crash-safe job journal; finished jobs' artifacts are filed once in the verdict store's disk layer (-cache-dir) and the journal names them (default: disabled, jobs are in-memory only)")
		recoverFlag   = fs.Bool("recover", false, "re-enqueue jobs interrupted by a crash instead of leaving them terminal (requires -journal-dir; queued jobs are always recovered)")
		flightFrames  = fs.Int("flight-recorder", 1024, "cycles of per-unit occupancy kept per run; failed jobs expose the dump as a postmortem artifact (0: off)")
		cacheEntries  = fs.Int("cache", 256, "verdicts retained in the content-addressed cache; identical resubmissions are served without simulating (0: off)")
		cacheDir      = fs.String("cache-dir", "", "disk layer of the verdict store, surviving restarts; a journaled daemon always has one and keeps finished jobs' artifacts there (default: <journal-dir>/cache when journaled, else memory-only)")
		auditBatch    = fs.Int("audit-batch", 0, "terminal journal records per Merkle audit root (0: default)")
		coordinator   = fs.Bool("coordinator", false, "serve the cluster-coordinator surface: worker registration, batch sharding, the shared verdict store")
		workerOf      = fs.String("worker-of", "", "coordinator base URL this daemon registers with as a worker (e.g. http://host:8844)")
		heartbeat     = fs.Duration("heartbeat", time.Second, "worker heartbeat period (with -worker-of)")
		workerTTL     = fs.Duration("worker-ttl", 5*time.Second, "heartbeat staleness after which the coordinator marks a worker dead and reassigns its shards")
		hedgeAfter    = fs.Duration("hedge-after", 30*time.Second, "straggler threshold: a dispatch outliving it gets a hedged duplicate on the next-ranked worker (negative: off)")
		shardTimeout  = fs.Duration("shard-timeout", 2*time.Minute, "bound on one dispatch attempt to one worker")
		maxRetryAfter = fs.Duration("max-retry-after", 5*time.Minute, "cap on the 503 Retry-After hint (negative: uncapped)")
		advertise     = fs.String("advertise", "", "URL workers/coordinators reach this daemon at (default: http://<bound addr>)")
		auditVerify   = fs.Bool("audit-verify", false, "verify the journal's Merkle audit chain under -journal-dir and exit")
		auditHead     = fs.String("audit-head", "", "with -audit-verify: externally recorded chain head the journal must end at (detects tail truncation)")
		logFormat     = fs.String("log-format", "text", "log output format: text or json")
		logLevel      = fs.String("log-level", "info", "log level: debug, info, warn or error")
		showVersion   = fs.Bool("version", false, "print the version and build provenance, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.Get().Line("msd"))
		return nil
	}
	if *recoverFlag && *journalDir == "" {
		return fmt.Errorf("-recover requires -journal-dir")
	}
	if *auditVerify {
		if *journalDir == "" {
			return fmt.Errorf("-audit-verify requires -journal-dir")
		}
		return runAuditVerify(*journalDir, *auditHead)
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	server, err := msd.New(msd.Config{
		Workers:            *workers,
		QueueSize:          *queue,
		MaxJobs:            *maxJobs,
		Logger:             logger,
		JournalDir:         *journalDir,
		RequeueInterrupted: *recoverFlag,
		FlightFrames:       *flightFrames,
		CacheEntries:       *cacheEntries,
		CacheDir:           *cacheDir,
		AuditBatch:         *auditBatch,
		Coordinator:        *coordinator,
		CoordinatorURL:     *workerOf,
		WorkerTTL:          *workerTTL,
		HedgeAfter:         *hedgeAfter,
		ShardTimeout:       *shardTimeout,
		MaxRetryAfter:      *maxRetryAfter,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Info("msd listening", "addr", ln.Addr().String(),
		"workers", *workers, "queue", *queue)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	// Worker mode: register with the coordinator and keep the
	// registration alive. The agent stops with the serve context; a
	// draining worker simply vanishes from the healthy set when its
	// heartbeats stop.
	if *workerOf != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		agent := &cluster.Agent{
			Coordinator: *workerOf,
			Self:        self,
			Interval:    *heartbeat,
			Logger:      logger,
		}
		go agent.Run(ctx)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Shutdown: stop intake, finish queued and in-flight jobs, then
	// close the HTTP server.
	logger.Info("msd shutting down", "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := server.Drain(drainCtx)
	if err := httpServer.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// runAuditVerify recomputes the journal's Merkle audit chain and
// reports the outcome on stdout; a tampered journal (or a head mismatch
// against an externally recorded anchor) is a non-nil error, which
// main turns into exit status 1.
func runAuditVerify(dir, head string) error {
	sum, err := msd.VerifyAuditLog(dir)
	if err != nil {
		return err
	}
	if head != "" && !strings.EqualFold(head, sum.Chain) {
		return fmt.Errorf("audit chain head is %s, expected %s (journal tail truncated or anchor stale)",
			sum.Chain, head)
	}
	fmt.Printf("audit OK: %d records, %d terminal, %d roots, %d pending, chain %s\n",
		sum.Records, sum.Terminal, sum.Batches, sum.Pending, sum.Chain)
	return nil
}

func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q", format)
	}
}
