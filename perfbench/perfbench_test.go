package main

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"microsampler/internal/core"
	"microsampler/internal/workloads"
)

func TestPaperOrderFollowsSeed(t *testing.T) {
	a, b := paperOrder(1, 0), paperOrder(1, 0)
	if !slices.Equal(a, b) {
		t.Fatal("seed 1 gave two different orders")
	}
	if slices.Equal(a, paperOrder(2, 0)) {
		t.Error("seeds 1 and 2 gave the same order")
	}
	if slices.Equal(a, paperOrder(1, 1)) {
		t.Error("decks 0 and 1 of seed 1 have the same order")
	}
	got := slices.Clone(a)
	sort.Strings(got)
	names, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, names) {
		t.Errorf("a deck is not the catalogue: %v", got)
	}
}

func TestMSDDeckFollowsSeed(t *testing.T) {
	same := func(x, y []msdOp) bool {
		return slices.EqualFunc(x, y, func(a, b msdOp) bool { return a.kind == b.kind && bytes.Equal(a.body, b.body) })
	}
	if !same(msdDeck(7, 0), msdDeck(7, 0)) {
		t.Fatal("seed 7 gave two different decks")
	}
	if same(msdDeck(7, 0), msdDeck(8, 0)) {
		t.Error("seeds 7 and 8 gave the same deck")
	}
	offsets := map[int]bool{}
	for d := 0; d < 50; d++ {
		deck := msdDeck(7, d)
		if len(deck) != msdDeckLen {
			t.Fatalf("deck %d has %d ops, want %d", d, len(deck), msdDeckLen)
		}
		kinds := map[msdKind]int{}
		for i, op := range deck {
			kinds[op.kind]++
			if op.kind == kindResubmit {
				orig := deck[op.of]
				if op.of >= i || orig.kind != kindReport || !bytes.Equal(orig.body, op.body) {
					t.Errorf("deck %d op %d: resubmission of op %d is not an earlier identical request", d, i, op.of)
				}
				continue
			}
			if offsets[op.seedOffset] {
				t.Errorf("deck %d op %d reuses seed offset %d", d, i, op.seedOffset)
			}
			offsets[op.seedOffset] = true
		}
		want := map[msdKind]int{kindReport: len(msdReportKernels), kindResubmit: msdResubmits,
			kindMatrix: len(msdMatrices), kindBatch: msdBatches}
		for k, n := range want {
			if kinds[k] != n {
				t.Errorf("deck %d has %d ops of kind %d, want %d", d, kinds[k], k, n)
			}
		}
	}
}

// Inputs are a function of (seed, deck) alone: drawing decks in any
// order, from any number of clients, yields the same sequence, so
// nothing a daemon answers can steer what is asked next.
func TestInputsIgnoreOutputs(t *testing.T) {
	want := make([][]msdOp, 4)
	for d := range want {
		want[d] = msdDeck(3, d)
	}
	m := deckMemo[[]msdOp]{gen: func(d int) []msdOp { return msdDeck(3, d) }}
	done := make(chan struct{})
	for _, d := range []int{3, 1} {
		go func() {
			defer func() { done <- struct{}{} }()
			m.get(d)
		}()
	}
	<-done
	<-done
	for d := range want {
		got := m.get(d)
		for i := range got {
			if got[i].kind != want[d][i].kind || !bytes.Equal(got[i].body, want[d][i].body) {
				t.Fatalf("deck %d op %d depends on the order decks were drawn in", d, i)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	tens := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	five := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{tens, 0.5, 5.5},
		{tens, 0.9, 9.1},
		{tens, 0, 1},
		{tens, 1, 10},
		{five, 0.4, 29},
		{five, 0.5, 35},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v", got)
	}
}

// The replay must describe the real pipeline: its digest equals
// core.Verify's for a leaky kernel, whose digest carries provenance,
// and a clean one.
func TestReplayDigestMatchesVerify(t *testing.T) {
	for _, name := range []string{"ME-NAIVE", "constant_time_eq"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		shape := paperShape()
		rep, err := core.Verify(w, shape.options())
		if err != nil {
			t.Fatal(err)
		}
		if rep.AnyLeak() != paperLabels[name] {
			t.Fatalf("%s: leaky=%v, want %v", name, rep.AnyLeak(), paperLabels[name])
		}
		var l layerSplit
		if err := replayMatches(w, shape, rep, renderDigest, &l); err != nil {
			t.Fatal(err)
		}
		if l.counts.SimCycles != rep.SimCycles || l.counts.TraceRows == 0 || l.counts.ReportBytes == 0 {
			t.Errorf("%s: replay counted %+v, verify simulated %d cycles", name, l.counts, rep.SimCycles)
		}
	}
}

func TestClosedLoopEndsOnDeckBoundary(t *testing.T) {
	ops, _ := closedLoop(func(int) opResult {
		time.Sleep(time.Millisecond)
		return opResult{verdicts: 1}
	}, 2, 7, 20*time.Millisecond)
	if len(ops) == 0 || len(ops)%7 != 0 {
		t.Errorf("ran %d ops, want a positive multiple of 7", len(ops))
	}
}

// The rate counts correct verdicts only, over the whole span of the
// operations, so a slowdown confined to a few of them still moves it.
func TestRateSpansAllOperations(t *testing.T) {
	ops := []opResult{
		{verdicts: 4, start: 0, end: time.Second},
		{verdicts: 4, start: time.Second, end: 3 * time.Second},
		{verdicts: 4, start: 3 * time.Second, end: 4 * time.Second, err: errors.New("wrong verdict")},
	}
	if got := rate(ops); got != 2 {
		t.Errorf("rate = %v verdicts/s, want 8 over 4 s", got)
	}
}

// One deck of msd-jobs from two clients: every answer passes its
// checks, resubmissions hit the cache and the traced split is filled.
func TestMSDJobsDeck(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	e, err := openMSD(runOpts{seed: 5, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ops, wall := closedLoop(e.do, 2, msdDeckLen, time.Millisecond)
	e.check(ops)
	if len(ops) != msdDeckLen {
		t.Fatalf("ran %d ops, want one deck of %d", len(ops), msdDeckLen)
	}
	for i, op := range ops {
		if op.err != nil {
			t.Errorf("op %d: %v", i, op.err)
		}
	}
	m, cn, err := e.layers(ops, wall, rtSnap{})
	if err != nil {
		t.Fatal(err)
	}
	if cn.SimCycles == 0 || cn.TraceRows == 0 || cn.ReportBytes == 0 {
		t.Errorf("exact counts not filled: %+v", cn)
	}
	if m["cache.hit_frac"].Value == 0 || m["cluster.remote_frac"].Value != 1 {
		t.Errorf("cache.hit_frac %v, cluster.remote_frac %v", m["cache.hit_frac"].Value, m["cluster.remote_frac"].Value)
	}
}
