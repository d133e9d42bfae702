// Command microsampler runs the MicroSampler leakage-detection pipeline
// on a built-in case study or a user-supplied assembly program and
// prints the per-unit verdicts, charts and root-cause reports.
//
// Usage:
//
//	microsampler -list
//	microsampler -workload ME-V1-MV [-config mega|small] [-runs 8]
//	microsampler -workload ME-V2-SAFE -fast-bypass -timing-chart
//	microsampler -workload ME-V1-MV-6B -histogram
//	microsampler -workload ME-V1-MV -features SQ-ADDR -contingency SQ-ADDR
//	microsampler -src program.s -runs 4
//	microsampler -workload AES-TTABLE -json > report.json
//	microsampler -workload ME-V1-MV -runs 4 -parallel 4 -metrics -trace-out spans.jsonl
//	microsampler -workload ME-V1-MV -progress -pprof localhost:6060
//	microsampler -workload ME-NAIVE -perfetto-out trace.json -heatmap-out heatmap.json -heatmap-html heatmap.html
//	microsampler -workload ME-V1-MV -run-timeout 30s
//	microsampler -workload AES-TTABLE -provenance-out prov.json -provenance-html prov.html
//	microsampler -workload ME-V1-MV -flight-recorder 1024 -flight-recorder-out postmortem.json
//	microsampler -workload TAGE-HIST -matrix "prefetch=none,stride;predictor=gshare,tage" -matrix-out matrix.json -matrix-html matrix.html
//	microsampler -workload AES-TTABLE -json -cache-dir ~/.cache/microsampler
//	microsampler -workload CT-MEM-CMP -history-dir .ms-history -label "$(git rev-parse --short HEAD)"
//	microsampler -workload CT-MEM-CMP -history-dir .ms-history -diff-against baseline -diff-out diff.json -diff-html diff.html
//	microsampler -workload TAGE-HIST -matrix default -diff-baseline baselines/tage.json
//	microsampler -version
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"microsampler"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "microsampler:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("microsampler", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list built-in workloads and exit")
		workload    = fs.String("workload", "", "built-in case-study name")
		srcPath     = fs.String("src", "", "path to an RV64 assembly program to verify")
		config      = fs.String("config", "mega", "core configuration: mega or small")
		fastBypass  = fs.Bool("fast-bypass", false, "enable the fast-bypass optimisation (ME-V2-FB)")
		runs        = fs.Int("runs", 8, "independent runs (distinct keys/inputs)")
		warmup      = fs.Int("warmup", 4, "warmup iterations to drop per run (0: keep all)")
		chart       = fs.Bool("chart", true, "print the Cramér's V bar chart")
		timingChart = fs.Bool("timing-chart", false, "print the with/without-timing chart (Fig. 9)")
		histogram   = fs.Bool("histogram", false, "print per-class iteration timing histogram (Fig. 6)")
		features    = fs.String("features", "", "print feature extraction for a unit (e.g. SQ-ADDR)")
		contingency = fs.String("contingency", "", "print the contingency table for a unit")
		stages      = fs.Bool("stages", false, "measure and print the stage-time breakdown (Table VI)")
		parallel    = fs.Int("parallel", -1, "concurrent simulation runs (-1: one per CPU, 1: sequential)")
		runTimeout  = fs.Duration("run-timeout", 0, "per-run wall-clock deadline (0: no deadline)")
		jsonOut     = fs.Bool("json", false, "emit the machine-readable JSON report instead of charts")
		metrics     = fs.Bool("metrics", false, "print the telemetry metrics dump after the run")
		traceOut    = fs.String("trace-out", "", "write pipeline spans as JSON lines to FILE")
		perfettoOut = fs.String("perfetto-out", "", "write the pipeline trace as Perfetto/Chrome JSON to FILE (open in ui.perfetto.dev)")
		heatmapOut  = fs.String("heatmap-out", "", "write the leakage heatmap as JSON to FILE")
		heatmapHTML = fs.String("heatmap-html", "", "write the leakage heatmap as self-contained HTML to FILE")
		heatmapWin  = fs.Int("heatmap-windows", 16, "iteration windows in the leakage heatmap")
		matrixSpec  = fs.String("matrix", "", "sweep a configuration grid instead of a single config: a spec like base=small,mega;predictor=gshare,tage, or \"default\"")
		matrixOut   = fs.String("matrix-out", "", "write the matrix verdict artifact as JSON to FILE (with -matrix)")
		matrixHTML  = fs.String("matrix-html", "", "write the matrix verdict heatmap as self-contained HTML to FILE (with -matrix)")
		matrixPar   = fs.Int("matrix-parallel", 1, "concurrent grid cells (-1: one per CPU); composes with -parallel")
		provOut     = fs.String("provenance-out", "", "write the instruction-level leakage provenance as JSON to FILE")
		provHTML    = fs.String("provenance-html", "", "write the leakage provenance as self-contained HTML (ranked table + disassembly) to FILE")
		flightN     = fs.Int("flight-recorder", 0, "arm a per-run flight recorder of the last N cycles (0: off)")
		flightOut   = fs.String("flight-recorder-out", "", "on failure, write the flight-recorder post-mortem as Perfetto JSON to FILE (implies -flight-recorder 1024 when unset)")
		cacheDir    = fs.String("cache-dir", "", "content-addressed disk cache: -json reports and -matrix artifacts from identical earlier runs are replayed byte-for-byte without simulating")
		historyDir  = fs.String("history-dir", "", "append this run's verdict and diffable artifact to the run-history store at DIR")
		runLabel    = fs.String("label", "", "history label for this run (default: the VCS commit stamped into the binary, else \"unlabeled\")")
		diffAgainst = fs.String("diff-against", "", "diff this run against the latest history record with LABEL (requires -history-dir); exits nonzero on a verdict regression")
		diffBase    = fs.String("diff-baseline", "", "diff this run against the baseline artifact in FILE (a report digest or matrix artifact JSON); exits nonzero on a verdict regression")
		diffOut     = fs.String("diff-out", "", "write the diff artifact as JSON to FILE (with -diff-against or -diff-baseline)")
		diffHTML    = fs.String("diff-html", "", "write the diff as a self-contained side-by-side HTML document to FILE")
		diffVDelta  = fs.Float64("diff-vdelta", 0, "minimum |ΔV| reported as drift in diffs (0: the default 0.05)")
		digestOut   = fs.String("digest-out", "", "write the report digest — the diffable baseline artifact — as JSON to FILE")
		showVersion = fs.Bool("version", false, "print the version and build provenance, then exit")
		progress    = fs.Bool("progress", false, "print live per-run progress to stderr")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to FILE")
		memProfile  = fs.String("memprofile", "", "write a heap profile to FILE")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showVersion {
		fmt.Println(microsampler.VersionLine("microsampler"))
		return nil
	}
	if *diffAgainst != "" && *historyDir == "" {
		return fmt.Errorf("-diff-against requires -history-dir")
	}
	if *diffAgainst != "" && *diffBase != "" {
		return fmt.Errorf("-diff-against and -diff-baseline are mutually exclusive")
	}

	if *pprofAddr != "" {
		ln := *pprofAddr
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "microsampler: pprof server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "microsampler: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "microsampler: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, n := range microsampler.WorkloadNames() {
			fmt.Println(n)
		}
		return nil
	}

	var w microsampler.Workload
	switch {
	case *workload != "":
		var err error
		w, err = microsampler.WorkloadByName(*workload)
		if err != nil {
			return err
		}
	case *srcPath != "":
		src, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		w = microsampler.Workload{Name: *srcPath, Source: string(src)}
	default:
		return fmt.Errorf("one of -workload or -src is required (see -list)")
	}

	cfg, err := microsampler.ConfigByName(*config)
	if err != nil {
		return err
	}
	cfg.FastBypass = *fastBypass

	opts := microsampler.Options{
		Config:        cfg,
		Runs:          *runs,
		Warmup:        *warmup,
		MeasureStages: *stages,
		Parallel:      *parallel,
		RunTimeout:    *runTimeout,
	}
	if *warmup == 0 {
		opts.Warmup = microsampler.NoWarmup
	}
	opts.FlightRecorderFrames = *flightN
	if *flightOut != "" && opts.FlightRecorderFrames == 0 {
		opts.FlightRecorderFrames = 1024
	}
	var reg *microsampler.MetricsRegistry
	if *metrics {
		reg = microsampler.NewMetrics()
		microsampler.BuildInfoGauge(reg, "microsampler_build_info")
		opts.Metrics = reg
	}
	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		opts.TraceSink = traceFile
	}
	if *progress {
		opts.Probe = microsampler.NewRunProbe()
	}

	var diskCache *microsampler.DiskCache
	if *cacheDir != "" {
		var err error
		diskCache, err = microsampler.OpenDiskCache(*cacheDir)
		if err != nil {
			return err
		}
	}

	hd := &histDiff{
		label:        *runLabel,
		diffAgainst:  *diffAgainst,
		baselineFile: *diffBase,
		diffOut:      *diffOut,
		diffHTML:     *diffHTML,
		vdelta:       *diffVDelta,
	}
	if hd.label == "" {
		hd.label = microsampler.DefaultHistoryLabel()
	}
	if *historyDir != "" {
		store, err := microsampler.OpenHistory(*historyDir)
		if err != nil {
			return err
		}
		defer store.Close()
		hd.store = store
	}

	// Provenance is recorded during the runs when an output renders it:
	// the provenance files, and the digest behind -digest-out, history
	// and diffs. Otherwise a report that needed it would replay its runs.
	opts.Provenance = *provOut != "" || *provHTML != "" || *digestOut != "" || hd.active()

	if *matrixSpec != "" {
		if *digestOut != "" {
			return fmt.Errorf("-digest-out applies to single-config runs; with -matrix the diffable artifact is -matrix-out")
		}
		return runMatrix(w, opts, *matrixSpec, *matrixOut, *matrixHTML, *matrixPar, diskCache, hd)
	}

	// The cached fast path replays the rendered report bytes, so it only
	// applies when the run's sole output is the -json report. History and
	// diff wiring needs the full report for its digest, so it disables
	// the fast path too.
	var cacheKey string
	if diskCache != nil && *jsonOut && !*metrics && !hd.active() &&
		*traceOut == "" && *perfettoOut == "" && *heatmapOut == "" &&
		*heatmapHTML == "" && *provOut == "" && *provHTML == "" && *digestOut == "" {
		key, err := microsampler.CacheKey(w, opts)
		if err != nil {
			return err
		}
		cacheKey = key
		if data, ok, err := diskCache.Get(key); err == nil && ok {
			fmt.Fprintln(os.Stderr, "microsampler: report replayed from cache")
			fmt.Println(string(data))
			return nil
		}
	}

	verifyStart := time.Now()
	stopProgress := showProgress(opts.Probe, 1)
	rep, err := microsampler.Verify(w, opts)
	stopProgress()
	verifyElapsed := time.Since(verifyStart)
	if err != nil {
		// A failed run can still leave evidence: write the flight
		// recorder's post-mortem before surfacing the error.
		if *flightOut != "" {
			if dump, ok := microsampler.FlightDumpFromError(err); ok {
				data, jerr := microsampler.RenderFlightPerfetto(dump).JSON()
				if jerr == nil {
					jerr = os.WriteFile(*flightOut, append(data, '\n'), 0o644)
				}
				if jerr != nil {
					fmt.Fprintln(os.Stderr, "microsampler: flight recorder:", jerr)
				} else {
					fmt.Fprintf(os.Stderr, "microsampler: post-mortem written to %s (last %d cycles)\n",
						*flightOut, len(dump.Frames))
				}
			}
		}
		return err
	}

	if *perfettoOut != "" {
		data, err := microsampler.RenderPerfetto(rep).JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*perfettoOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *heatmapOut != "" {
		data, err := microsampler.RenderHeatmapJSON(rep, *heatmapWin)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*heatmapOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *heatmapHTML != "" {
		doc, err := microsampler.RenderHeatmapHTML(rep, *heatmapWin)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*heatmapHTML, []byte(doc), 0o644); err != nil {
			return err
		}
	}
	if *provOut != "" {
		data, err := microsampler.RenderProvenanceJSON(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*provOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *provHTML != "" {
		doc, err := microsampler.RenderProvenanceHTML(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*provHTML, []byte(doc), 0o644); err != nil {
			return err
		}
	}

	// History recording and baseline diffing: the digest is the diffable
	// artifact of a single verification. A verdict regression surfaces
	// as diffErr after the requested outputs are written, so the process
	// exits nonzero (the CI gate) without swallowing the report.
	var diffErr error
	if hd.active() || *digestOut != "" {
		digest, err := microsampler.BuildDigest(rep)
		if err != nil {
			return err
		}
		digestJSON, err := digest.JSON()
		if err != nil {
			return err
		}
		if *digestOut != "" {
			if err := os.WriteFile(*digestOut, append(digestJSON, '\n'), 0o644); err != nil {
				return err
			}
		}
		diffErr = hd.finishReport(rep, digest, digestJSON, verifyElapsed)
	}

	if *jsonOut {
		data, err := microsampler.RenderJSON(rep)
		if err != nil {
			return err
		}
		if cacheKey != "" {
			if err := diskCache.Put(cacheKey, data); err != nil {
				fmt.Fprintln(os.Stderr, "microsampler: cache write:", err)
			}
		}
		fmt.Println(string(data))
		if reg != nil {
			fmt.Print(microsampler.RenderMetrics(reg))
		}
		return diffErr
	}

	fmt.Print(microsampler.RenderSummary(rep))
	if *chart {
		fmt.Print(microsampler.RenderChart(rep))
	}
	if *timingChart {
		fmt.Print(microsampler.RenderTimingChart(rep))
	}
	if *histogram {
		fmt.Print(microsampler.RenderHistogram(rep.Workload, rep.Iterations))
	}
	if *features != "" {
		u, err := unitByName(*features)
		if err != nil {
			return err
		}
		fmt.Print(microsampler.RenderFeatures(rep, u))
	}
	if *contingency != "" {
		u, err := unitByName(*contingency)
		if err != nil {
			return err
		}
		fmt.Print(microsampler.RenderContingency(rep, u, 8))
	}
	if *stages {
		fmt.Print(microsampler.RenderStages(rep))
	}
	if reg != nil {
		fmt.Print(microsampler.RenderMetrics(reg))
	}
	return diffErr
}

// showProgress rewrites a "run D/T done" line on stderr whenever the
// probe's snapshot changes, polling it every 100ms. A sequential sweep
// of cells verifications shares the probe, so its run total is the
// per-cell total times cells. The returned stop ends the poller and
// prints the final line; with a nil probe both are no-ops.
func showProgress(probe *microsampler.RunProbe, cells int) (stop func()) {
	if probe == nil {
		return func() {}
	}
	start := time.Now()
	show := func(s microsampler.ProbeSnapshot) {
		fmt.Fprintf(os.Stderr, "\rrun %d/%d done (%d cycles, %v elapsed)",
			s.RunsDone, s.TotalRuns*cells, s.Cycles, time.Since(start).Round(time.Millisecond))
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var last microsampler.ProbeSnapshot
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if s := probe.Snapshot(); s != last {
					last = s
					show(s)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
		show(probe.Snapshot())
		fmt.Fprintln(os.Stderr)
	}
}

// runMatrix sweeps the workload over a configuration grid, prints the
// per-cell verdicts and writes the requested artifacts. With a disk
// cache, an identical earlier sweep is replayed without simulating —
// history recording and baseline diffing still run off the replayed
// artifact, so the CI gate costs microseconds on an unchanged tree.
func runMatrix(w microsampler.Workload, opts microsampler.Options, spec, jsonOut, htmlOut string, cellParallel int, disk *microsampler.DiskCache, hd *histDiff) error {
	grid, err := microsampler.ParseGridSpec(spec)
	if err != nil {
		return err
	}
	mo := microsampler.MatrixOptions{Options: opts, Grid: grid, CellParallel: cellParallel}
	// A probe is per-verification state: concurrent cells would
	// interleave their runs in it, so only a sequential sweep shares one.
	if cellParallel != 0 && cellParallel != 1 {
		mo.Probe = nil
	}

	// The cache entry is the artifact JSON: the verdict lines and the
	// HTML derive from it, so a replay prints and writes the same bytes.
	var cacheKey string
	if disk != nil {
		key, err := microsampler.MatrixCacheKey(w, mo)
		if err != nil {
			return err
		}
		cacheKey = key
		if data, ok, err := disk.Get(key); err == nil && ok {
			var art microsampler.MatrixArtifact
			err := json.Unmarshal(data, &art)
			if err == nil && art.Workload == "" {
				err = errors.New("no matrix artifact")
			}
			if err == nil {
				fmt.Fprintln(os.Stderr, "microsampler: matrix replayed from cache")
				printMatrix(&art)
				if err := writeMatrixArtifacts(jsonOut, htmlOut, &art, data); err != nil {
					return err
				}
				return hd.finishMatrix(&art, data, 0)
			}
			fmt.Fprintln(os.Stderr, "microsampler: cache entry corrupt, re-verifying:", err)
		}
	}

	sweepStart := time.Now()
	stopProgress := showProgress(mo.Probe, len(grid.Cells()))
	m, err := microsampler.VerifyMatrix(w, mo)
	stopProgress()
	sweepElapsed := time.Since(sweepStart)
	if err != nil {
		return err
	}
	art := microsampler.BuildMatrix(m)
	printMatrix(art)
	var artJSON []byte
	if cacheKey != "" || jsonOut != "" || hd.active() {
		if artJSON, err = art.JSON(); err != nil {
			return err
		}
	}
	if cacheKey != "" {
		if err := disk.Put(cacheKey, artJSON); err != nil {
			fmt.Fprintln(os.Stderr, "microsampler: cache write:", err)
		}
	}
	if err := writeMatrixArtifacts(jsonOut, htmlOut, art, artJSON); err != nil {
		return err
	}
	return hd.finishMatrix(art, artJSON, sweepElapsed)
}

// printMatrix prints a sweep's verdict, one line per cell. A leaky cell
// whose provenance failed still prints LEAKY: its error is the
// artifact's note, not the cell's.
func printMatrix(art *microsampler.MatrixArtifact) {
	leaky := 0
	for _, c := range art.Cells {
		if c.Leaky {
			leaky++
		}
	}
	fmt.Printf("matrix %s: %d cells, %d leaky\n", art.Workload, len(art.Cells), leaky)
	for _, c := range art.Cells {
		switch {
		case c.Leaky:
			units := make([]string, 0, len(c.Flagged))
			for _, f := range c.Flagged {
				units = append(units, fmt.Sprintf("%s V=%.3f", f.Unit, f.V))
			}
			fmt.Printf("  %-60s LEAKY  %s\n", c.Name, strings.Join(units, ", "))
		case c.Err != "":
			fmt.Printf("  %-60s ERROR %s\n", c.Name, c.Err)
		default:
			fmt.Printf("  %-60s clean\n", c.Name)
		}
	}
}

// writeMatrixArtifacts writes the artifact JSON and the HTML rendered
// from the artifact to the requested files.
func writeMatrixArtifacts(jsonOut, htmlOut string, art *microsampler.MatrixArtifact, artJSON []byte) error {
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, append(artJSON, '\n'), 0o644); err != nil {
			return err
		}
	}
	if htmlOut != "" {
		if err := os.WriteFile(htmlOut, []byte(art.HTML()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func unitByName(name string) (microsampler.Unit, error) {
	for _, u := range microsampler.AllUnits() {
		if strings.EqualFold(u.String(), name) {
			return u, nil
		}
	}
	return 0, fmt.Errorf("unknown unit %q", name)
}
