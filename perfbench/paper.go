package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// paper-suite: one client verifies the whole built-in catalogue in a
// seeded order, at the daemon's default shape (MegaBoom, 4 runs, default
// warmup), one core.Verify call with Parallel 1 per operation.
// Per-cycle sampling dominates, so the sim and trace layers set this
// workload's throughput and tail; there is no HTTP, cache or rendering,
// and a change confined to msd, cache or report must read as no change.

// paperLabels is the expected verdict of every catalogue kernel at the
// paper-suite shape. The leaky and clean pairs come from the oracle
// corpus (internal/oracle/corpus.go) and the paper figures asserted in
// bench_test.go: of the Table V primitives only CRYPTO_memcmp leaks, and
// the TAGE, stride-prefetcher and early-out-divider leaks need
// configurations MegaBoom does not have.
var paperLabels = map[string]bool{
	"AES-PRELOAD":   true,
	"AES-TTABLE":    true,
	"CHACHA20":      false,
	"CRYPTO_memcmp": true,
	"CT-DIV":        false,
	"CT-MEM-CMP":    true,
	"ME-NAIVE":      true,
	"ME-V1-CV":      true,
	"ME-V1-MV":      true,
	"ME-V1-MV-6A":   true,
	"ME-V1-MV-6B":   true,
	"ME-V2-SAFE":    false,
	"ME-WIN4-LKUP":  true,
	"ME-WIN4-SAFE":  false,
	"SPECTRE-PHT":   true,
	"SPF-STREAM":    false,
	"TAGE-HIST":     false,

	"constant_time_cond_swap":      false,
	"constant_time_cond_swap_32":   false,
	"constant_time_cond_swap_64":   false,
	"constant_time_cond_swap_buff": false,
	"constant_time_eq":             false,
	"constant_time_eq_8":           false,
	"constant_time_eq_bn":          false,
	"constant_time_eq_int":         false,
	"constant_time_eq_int_8":       false,
	"constant_time_ge":             false,
	"constant_time_ge_8_s":         false,
	"constant_time_ge_s":           false,
	"constant_time_is_zero":        false,
	"constant_time_is_zero_32":     false,
	"constant_time_is_zero_64":     false,
	"constant_time_is_zero_8":      false,
	"constant_time_is_zero_s":      false,
	"constant_time_lookup":         false,
	"constant_time_lt":             false,
	"constant_time_lt_32":          false,
	"constant_time_lt_64":          false,
	"constant_time_lt_bn":          false,
	"constant_time_lt_s":           false,
	"constant_time_select":         false,
	"constant_time_select_32":      false,
	"constant_time_select_64":      false,
	"constant_time_select_8":       false,
}

// paperWarmup is the kernel set-up verifies once, untimed.
const paperWarmup = "ME-V1-MV"

// paperShape is the verification every paper-suite operation runs.
func paperShape() verifyShape {
	return verifyShape{cfg: sim.MegaBoom(), runs: 4, warmup: 2}
}

// catalogue returns the built-in kernel names, failing when the
// catalogue and paperLabels disagree, so that a new kernel cannot join
// the benchmark without an expected verdict.
func catalogue() ([]string, error) {
	names := workloads.Names()
	if len(names) != len(paperLabels) {
		return nil, fmt.Errorf("catalogue has %d kernels, paperLabels %d", len(names), len(paperLabels))
	}
	for _, n := range names {
		if _, ok := paperLabels[n]; !ok {
			return nil, fmt.Errorf("kernel %s has no expected verdict in paperLabels", n)
		}
	}
	return names, nil
}

// paperOrder is deck d of the seeded operation sequence: the whole
// catalogue, shuffled.
func paperOrder(seed int64, d int) []string {
	names := make([]string, 0, len(paperLabels))
	for n := range paperLabels {
		names = append(names, n)
	}
	sort.Strings(names)
	deckRand(seed, d).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

type paperEnv struct {
	traced  bool
	kernels map[string]core.Workload
	decks   deckMemo[[]string]

	// Traced runs only; one client, so no locking.
	all, window layerSplit
	rt          rtSnap
}

func openPaper(o runOpts) (env, error) {
	names, err := catalogue()
	if err != nil {
		return nil, err
	}
	e := &paperEnv{traced: o.traced, kernels: make(map[string]core.Workload, len(names))}
	e.decks.gen = func(d int) []string { return paperOrder(o.seed, d) }
	for _, n := range names {
		if e.kernels[n], err = workloads.ByName(n); err != nil {
			return nil, err
		}
	}
	rep, err := core.Verify(e.kernels[paperWarmup], paperShape().options())
	if err != nil {
		return nil, err
	}
	if rep.AnyLeak() != paperLabels[paperWarmup] {
		return nil, fmt.Errorf("warm-up %s: leaky=%v, want %v", paperWarmup, rep.AnyLeak(), paperLabels[paperWarmup])
	}
	return e, nil
}

func (e *paperEnv) do(i int) opResult {
	name := e.decks.get(i / len(paperLabels))[i%len(paperLabels)]
	w, shape := e.kernels[name], paperShape()
	rt0 := readRuntime()
	start := time.Now()
	rep, err := core.Verify(w, shape.options())
	lat := time.Since(start)
	if e.traced {
		e.rt = e.rt.add(readRuntime().sub(rt0))
	}
	if err != nil {
		return opResult{lat: lat, err: err}
	}
	if rep.AnyLeak() != paperLabels[name] {
		return opResult{lat: lat, err: fmt.Errorf("%s: leaky=%v, want %v", name, rep.AnyLeak(), paperLabels[name])}
	}
	if e.traced {
		one := layerSplit{ops: 1, plainWall: lat, keys: 1}
		t := time.Now()
		if _, err := core.CacheKey(w, shape.options()); err != nil {
			return opResult{lat: lat, err: err}
		}
		one.keyTime = time.Since(t)
		if err := replayMatches(w, shape, rep, renderDigest, &one); err != nil {
			return opResult{lat: lat, err: err}
		}
		e.all.add(&one)
		if i < len(paperLabels) {
			e.window.add(&one)
		}
	}
	return opResult{verdicts: 1, lat: lat}
}

// replayMatches replays one verification into l and checks that it
// reproduces the plain verification's digest.
func replayMatches(w core.Workload, s verifyShape, plain *core.Report, render renderFunc, l *layerSplit) error {
	rep, err := replay(w, s, render, l)
	if err != nil {
		return err
	}
	got, err := digestJSON(rep)
	if err != nil {
		return err
	}
	want, err := digestJSON(plain)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s on %s: replayed digest differs from core.Verify's", w.Name, s.cfg.Name)
	}
	return nil
}

func (e *paperEnv) check([]opResult) {}

// layers reports the runtime's activity during the plain verifications
// only, leaving out the replays.
func (e *paperEnv) layers(ops []opResult, _ time.Duration, _ rtSnap) (map[string]metric, counts, error) {
	if e.window.ops != len(paperLabels) {
		return nil, counts{}, fmt.Errorf("count window replayed %d of %d kernels", e.window.ops, len(paperLabels))
	}
	m := e.all.metrics()
	for k, v := range e.rt.metrics(verdicts(ops)) {
		m[k] = v
	}
	return m, e.window.counts, nil
}

func (e *paperEnv) close() {}

func verdicts(ops []opResult) int {
	n := 0
	for _, op := range ops {
		if op.err == nil {
			n += op.verdicts
		}
	}
	return n
}
