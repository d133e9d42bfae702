// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (paper-suite, ci-grid or msd-jobs) as a closed loop for a
// fixed time, checks every operation's output, and prints one JSON
// result line. With -trace 0 the result carries the end-to-end metrics;
// with -trace 1 it carries the per-layer split instead. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line settings one environment is opened with.
type runOpts struct {
	seed   int64
	traced bool
}

// opResult is the outcome of one timed operation.
type opResult struct {
	verdicts int
	lat      time.Duration
	err      error
	// start and end place the operation in the timed phase.
	start, end time.Duration
}

// env is one set-up instance of a workload, ready to serve operations.
type env interface {
	// do runs operation i of the seeded sequence.
	do(i int) opResult
	// check runs the checks that can only happen once the timed phase is
	// over, marking failed operations in ops.
	check(ops []opResult)
	// layers returns the per-layer metrics of a traced run; rt is the
	// runtime's activity over the timed phase.
	layers(ops []opResult, wall time.Duration, rt rtSnap) (map[string]metric, counts, error)
	close()
}

// spec describes a workload to the harness.
type spec struct {
	// clients is the number of closed-loop clients.
	clients int
	// setups is how often set-up is repeated; setup_s is their median.
	// Together they take a few seconds, so that the median is not at the
	// mercy of one scheduling hiccup.
	setups int
	// deck is the number of operations with a fixed composition: the
	// timed phase always ends on a deck boundary, so every run measures
	// the same mix whatever its seed.
	deck int
	open func(o runOpts) (env, error)
}

var specs = map[string]spec{
	"paper-suite": {clients: 1, setups: 30, deck: len(paperLabels), open: openPaper},
	"ci-grid":     {clients: 1, setups: 20, deck: gridDeck, open: openGrid},
	"msd-jobs":    {clients: 2, setups: 10, deck: msdDeckLen, open: openMSD},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-suite, ci-grid or msd-jobs")
	seed := fs.Int64("seed", 1, "seed fixing the order and mix of operations")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	o := runOpts{seed: *seed, traced: *trace == 1}
	res, err := measure(*name, sp, o, time.Duration(*seconds*float64(time.Second)), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// measure sets the workload up sp.setups times, runs the timed phase on
// the last set-up, checks the outputs and assembles the result.
func measure(name string, sp spec, o runOpts, d time.Duration, log io.Writer) (*result, error) {
	host := startHost()
	var e env
	var setups []float64
	for k := 0; k < sp.setups; k++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = sp.open(o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	rt0 := readRuntime()
	ops, wall := closedLoop(e.do, sp.clients, sp.deck, d)
	rtd := readRuntime().sub(rt0)
	// Read before the checks, whose own verifications are not the
	// program's.
	rss := peakRSSMB()
	e.check(ops)

	res := &result{Attempted: len(ops), Metrics: map[string]metric{}}
	lats := make([]float64, 0, len(ops))
	for i, op := range ops {
		lats = append(lats, ms(op.lat))
		if op.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(log, "perfbench: %s op %d failed: %v\n", name, i, op.err)
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.traced {
		lm, cn, err := e.layers(ops, wall, rtd)
		if err != nil {
			return nil, fmt.Errorf("%s per-layer split: %w", name, err)
		}
		for k, v := range cn.metrics() {
			lm[k] = v
		}
		res.Metrics = lm
		if err := cn.check(name, o.seed); err != nil {
			fmt.Fprintln(log, "perfbench:", err)
			res.Correct = false
		}
		fmt.Fprintf(log, "perfbench: %s exact counts %s\n", name, cn)
	} else {
		sort.Float64s(lats)
		res.Metrics = map[string]metric{
			"setup_s":        {median(setups), "s"},
			"verdicts_per_s": {rate(ops), "1/s"},
			"latency_p50_ms": {percentile(lats, 0.5), "ms"},
			"latency_p90_ms": {percentile(lats, 0.9), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		}
	}
	rec := host.finish(name, o, len(ops), res.Failed, verdicts(ops), wall, setups)
	if line, err := json.Marshal(rec); err == nil {
		fmt.Fprintf(log, "perfbench: host %s\n", line)
	}
	return res, nil
}

// closedLoop runs do from clients goroutines, each issuing its next
// operation only when the previous one has returned. Once d has passed,
// operations are claimed only up to the next multiple of deck, so the
// measured mix is a whole number of decks.
func closedLoop(do func(i int) opResult, clients, deck int, d time.Duration) ([]opResult, time.Duration) {
	var (
		mu      sync.Mutex
		ops     []opResult
		next    int
		stopAt  = -1
		start   = time.Now()
		wg      sync.WaitGroup
		expired = start.Add(d)
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if stopAt < 0 && !time.Now().Before(expired) {
			stopAt = (next + deck - 1) / deck * deck
		}
		if stopAt >= 0 && next >= stopAt {
			return -1
		}
		ops = append(ops, opResult{})
		next++
		return next - 1
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				began := time.Since(start)
				r := do(i)
				r.start, r.end = began, time.Since(start)
				mu.Lock()
				ops[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

// rate is the run's correct verdicts per wall second, from the first
// operation's start to the last one's end.
func rate(ops []opResult) float64 {
	first, last := ops[0].start, ops[0].end
	for _, op := range ops {
		first, last = min(first, op.start), max(last, op.end)
	}
	return float64(verdicts(ops)) / (last - first).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
