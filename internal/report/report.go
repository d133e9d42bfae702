// Package report renders MicroSampler verification results. As
// terminal text: Cramér's V bar charts in the style of the paper's
// figures, iteration-timing histograms (Fig. 6), contingency tables
// (Table II) and the various summary tables of the evaluation section.
// As artifacts: the JSON report, the heatmap, provenance and
// config-grid matrix documents in JSON and HTML, the report digest, and
// the report and matrix diffs. Artifact bytes are a contract (msd stores
// them, the CI gate diffs against a committed matrix), pinned by the
// goldens under testdata/.
package report

import (
	"fmt"
	"sort"
	"strings"

	"microsampler/internal/core"
	"microsampler/internal/telemetry"
	"microsampler/internal/trace"
)

const barWidth = 40

// bar renders a value in [0,1] as a fixed-width bar.
func bar(v float64) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	n := int(v*barWidth + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", barWidth-n)
}

// CramersVChart renders the per-unit Cramér's V bar chart of a report
// (the paper's Figs. 3, 4, 7, 10). Values are masked by statistical
// significance, as in the paper's plots; the raw (V, p) pair is printed
// alongside. A trailing asterisk marks units flagged as leaky.
func CramersVChart(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cramér's V per microarchitectural unit — %s on %s (%d iterations)\n",
		rep.Workload, rep.Config, len(rep.Iterations))
	for _, u := range rep.Units {
		mark := " "
		if u.Leaky() {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %-12s |%s| %.3f (p=%.2e)%s\n",
			u.Unit, bar(u.Assoc.MaskedV()), u.Assoc.V, u.Assoc.P, mark)
	}
	return b.String()
}

// CramersVTimingChart renders the paired with/without-timing chart of
// Fig. 9: for each unit the full-snapshot V and the timing-removed V.
func CramersVTimingChart(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cramér's V with (=) and without (-) timing — %s on %s\n",
		rep.Workload, rep.Config)
	for _, u := range rep.Units {
		fmt.Fprintf(&b, "  %-12s =|%s| %.3f\n", u.Unit, bar(u.Assoc.MaskedV()), u.Assoc.V)
		fmt.Fprintf(&b, "  %-12s -|%s| %.3f\n", "", bar(u.AssocNoTiming.MaskedV()),
			u.AssocNoTiming.V)
	}
	return b.String()
}

// TimingHistogram renders per-class iteration cycle-count distributions
// (the paper's Fig. 6).
func TimingHistogram(title string, iters []trace.IterSample) string {
	byClass := map[uint64]map[int64]int{}
	maxCount := 0
	for _, it := range iters {
		m := byClass[it.Class]
		if m == nil {
			m = map[int64]int{}
			byClass[it.Class] = m
		}
		m[it.Cycles]++
		if m[it.Cycles] > maxCount {
			maxCount = m[it.Cycles]
		}
	}
	classes := make([]uint64, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "Iteration cycle-count distribution — %s\n", title)
	for _, c := range classes {
		fmt.Fprintf(&b, "  class %d (key bit %d):\n", c, c)
		cycles := make([]int64, 0, len(byClass[c]))
		for cyc := range byClass[c] {
			cycles = append(cycles, cyc)
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		for _, cyc := range cycles {
			n := byClass[c][cyc]
			w := n * barWidth / maxCount
			fmt.Fprintf(&b, "    %6d cycles |%-*s| %d\n", cyc, barWidth,
				strings.Repeat("#", w), n)
		}
	}
	return b.String()
}

// MeanCycles returns the mean iteration length per class, for asserting
// the Fig. 6 separation programmatically.
func MeanCycles(iters []trace.IterSample) map[uint64]float64 {
	sum := map[uint64]int64{}
	n := map[uint64]int64{}
	for _, it := range iters {
		sum[it.Class] += it.Cycles
		n[it.Class]++
	}
	out := make(map[uint64]float64, len(sum))
	for c := range sum {
		out[c] = float64(sum[c]) / float64(n[c])
	}
	return out
}

// ContingencyTable renders the contingency table of one unit (Table II).
func ContingencyTable(rep *core.Report, unit trace.Unit, maxCols int) string {
	u, ok := rep.Unit(unit)
	if !ok {
		return fmt.Sprintf("unit %v not tracked\n", unit)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Contingency table for %s — %s\n", unit, rep.Workload)
	b.WriteString(u.Table.Render(maxCols))
	fmt.Fprintf(&b, "%s\n", u.Assoc)
	return b.String()
}

// Features renders the root-cause extraction of a unit: per-class unique
// feature values (Fig. 5) and feature-ordering mismatches.
func Features(rep *core.Report, unit trace.Unit) string {
	u, ok := rep.Unit(unit)
	if !ok {
		return fmt.Sprintf("unit %v not tracked\n", unit)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Feature extraction for %s — %s\n", unit, rep.Workload)
	if u.UniqueFeatures == nil {
		b.WriteString("  (no significant correlation; extraction not performed)\n")
		return b.String()
	}
	classes := make([]uint64, 0, len(u.UniqueFeatures))
	for c := range u.UniqueFeatures {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		vals := u.UniqueFeatures[c]
		fmt.Fprintf(&b, "  class %d: %d unique feature(s)", c, len(vals))
		for i, v := range vals {
			if i == 8 {
				fmt.Fprintf(&b, " … (+%d more)", len(vals)-8)
				break
			}
			fmt.Fprintf(&b, " %s", symbolize(rep, v))
		}
		b.WriteString("\n")
		b.WriteString(attributeFeatures(rep, vals))
	}
	for _, m := range u.Ordering {
		fmt.Fprintf(&b, "  ordering mismatch between class %d and class %d (%d shared features)\n",
			m.ClassA, m.ClassB, len(m.OrderA))
	}
	return b.String()
}

// symbolize renders a feature value with its symbol when it resolves to
// a program address (code or data).
func symbolize(rep *core.Report, v uint64) string {
	if rep.Program == nil {
		return fmt.Sprintf("%#x", v)
	}
	sym := rep.Program.AnySymbolAt(v)
	if strings.HasPrefix(sym, "0x") {
		return sym
	}
	return fmt.Sprintf("%#x (%s)", v, sym)
}

// attributeFeatures names the functions whose stores/loads produced the
// feature addresses — the paper's "these addresses all belong to the
// memmove() function" step.
func attributeFeatures(rep *core.Report, vals []uint64) string {
	if rep.Program == nil {
		return ""
	}
	funcs := map[string]bool{}
	for _, v := range vals {
		for _, pc := range rep.StoreWriters[v] {
			funcs[baseSymbol(rep.Program.SymbolAt(pc))] = true
		}
		for _, pc := range rep.LoadReaders[v] {
			funcs[baseSymbol(rep.Program.SymbolAt(pc))] = true
		}
	}
	if len(funcs) == 0 {
		return ""
	}
	names := make([]string, 0, len(funcs))
	for f := range funcs {
		names = append(names, f)
	}
	sort.Strings(names)
	return fmt.Sprintf("    produced by: %s\n", strings.Join(names, ", "))
}

// baseSymbol strips the +offset suffix of a resolved symbol.
func baseSymbol(sym string) string {
	if i := strings.IndexByte(sym, '+'); i > 0 {
		return sym[:i]
	}
	return sym
}

// Summary renders the one-line verdict plus leaky-unit list.
func Summary(rep *core.Report) string {
	leaks := rep.LeakyUnits()
	if len(leaks) == 0 {
		return fmt.Sprintf("%s on %s: no statistically significant secret-dependent state (%d iterations)\n",
			rep.Workload, rep.Config, len(rep.Iterations))
	}
	names := make([]string, 0, len(leaks))
	for _, l := range leaks {
		names = append(names, l.Unit.String())
	}
	return fmt.Sprintf("%s on %s: LEAKAGE in %d unit(s): %s\n",
		rep.Workload, rep.Config, len(leaks), strings.Join(names, ", "))
}

// StageBreakdown renders the Table VI stage-time breakdown, enriched
// with the per-run distributions (min/mean/p95/max) so that parallel
// runs stay attributable: under Parallel > 1 the stage totals are sums
// of per-run time while the distribution rows show the actual per-run
// behaviour.
func StageBreakdown(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MicroSampler stage breakdown — %s on %s (%d runs, %d cycles simulated)\n",
		rep.Workload, rep.Config, rep.Runs, rep.SimCycles)
	s := rep.Stages
	fmt.Fprintf(&b, "  0. assemble program                    %12v\n", s.Assemble)
	fmt.Fprintf(&b, "  1. execute program on simulator        %12v\n", s.Simulate)
	fmt.Fprintf(&b, "  2. parse traces / build snapshots      %12v\n", s.Parse)
	fmt.Fprintf(&b, "  3. Cramér's V for tracked structures   %12v\n", s.Stats)
	fmt.Fprintf(&b, "  4. feature extraction                  %12v\n", s.Extract)
	fmt.Fprintf(&b, "  total                                  %12v\n", s.Total())
	writeDurStats(&b, "per-run wall", s.RunWall)
	writeDurStats(&b, "per-run simulate", s.RunSim)
	writeDurStats(&b, "per-run parse", s.RunParse)
	return b.String()
}

// writeDurStats renders one per-run distribution row; empty
// distributions (e.g. RunSim without MeasureStages) are omitted.
func writeDurStats(b *strings.Builder, label string, d telemetry.DurStats) {
	if d.N == 0 {
		return
	}
	fmt.Fprintf(b, "  %-20s n=%-3d min=%v mean=%v p95=%v max=%v\n",
		label, d.N, d.Min, d.Mean, d.P95, d.Max)
}
