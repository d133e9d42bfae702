package report

import (
	"encoding/json"
	"fmt"
	"html"
	"strings"

	"microsampler/internal/core"
	"microsampler/internal/stats"
)

// This file is the diff half of the differential observability layer:
// distilled, JSON-round-trippable digests of a run (ReportDigest; the
// matrix counterpart is MatrixArtifact) and deterministic diff
// artifacts between two of them (BuildDiff, BuildMatrixDiff). Like
// every other artifact in this package, diffs are built exclusively
// from deterministic inputs — no wall-clock quantities — so the JSON
// rendering of the same pair of runs is byte-identical however and
// whenever it is produced.

// ReportDigest is the diffable distillation of one verification: the
// per-unit verdict and association strength plus the top-ranked
// provenance. It round-trips through JSON, so a digest stored in the
// history store (or committed as a baseline file) can seed BuildDiff
// against a fresh run.
type ReportDigest struct {
	Workload string       `json:"workload"`
	Config   string       `json:"config"`
	Leaky    bool         `json:"leaky"`
	Units    []DigestUnit `json:"units"`
	// TopProvenance lists the strongest instruction attributions
	// (BuildProvenance order), empty for clean runs.
	TopProvenance []MatrixProv `json:"topProvenance,omitempty"`
}

// DigestUnit is one unit's distilled verdict.
type DigestUnit struct {
	Unit  string  `json:"unit"`
	Leaky bool    `json:"leaky"`
	V     float64 `json:"cramersV"`
	P     float64 `json:"pValue"`
}

// BuildDigest distils a report into its diffable digest.
func BuildDigest(rep *core.Report) (*ReportDigest, error) {
	d := &ReportDigest{
		Workload: rep.Workload,
		Config:   rep.Config,
		Leaky:    rep.AnyLeak(),
	}
	for _, u := range rep.Units {
		d.Units = append(d.Units, DigestUnit{
			Unit:  u.Unit.String(),
			Leaky: u.Leaky(),
			V:     u.Assoc.V,
			P:     u.Assoc.P,
		})
	}
	if d.Leaky {
		pv, err := BuildProvenance(rep)
		if err != nil {
			return nil, fmt.Errorf("digest provenance: %w", err)
		}
		for i, e := range pv.Entries {
			if i >= DefaultMatrixProvenance {
				break
			}
			d.TopProvenance = append(d.TopProvenance, MatrixProv{
				Unit: e.Unit, PC: e.PC, Symbol: e.Symbol, Via: e.Via, V: e.V,
			})
		}
	}
	return d, nil
}

// JSON renders the digest as indented, deterministic JSON.
func (d *ReportDigest) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// MaxV is the strongest per-unit Cramér's V of the digest.
func (d *ReportDigest) MaxV() float64 {
	var max float64
	for _, u := range d.Units {
		if u.V > max {
			max = u.V
		}
	}
	return max
}

// DefaultVDelta is the Cramér's V drift threshold used when
// DiffOptions leaves it unset.
const DefaultVDelta = 0.05

// DiffOptions tunes the diff engine.
type DiffOptions struct {
	// FromLabel/ToLabel name the two sides in the artifact (typically
	// commit SHAs or history labels); purely descriptive.
	FromLabel string
	ToLabel   string
	// VDelta is the minimum |ΔV| for a unit or cell whose verdict did
	// NOT flip to be reported as drift (default DefaultVDelta).
	VDelta float64
}

func (o DiffOptions) vdelta() float64 {
	if o.VDelta > 0 {
		return o.VDelta
	}
	return DefaultVDelta
}

// VerdictFlip is one unit or grid cell whose leaky verdict changed
// between the two runs. For cell flips the flagged-unit lists carry
// which units tripped on each side.
type VerdictFlip struct {
	Name        string   `json:"name"` // unit name, or grid cell name
	FromLeaky   bool     `json:"fromLeaky"`
	ToLeaky     bool     `json:"toLeaky"`
	FromV       float64  `json:"fromCramersV"`
	ToV         float64  `json:"toCramersV"`
	FromFlagged []string `json:"fromFlagged,omitempty"`
	ToFlagged   []string `json:"toFlagged,omitempty"`
}

// VDrift is a sub-verdict change: the verdict held, but Cramér's V
// moved by at least the configured threshold.
type VDrift struct {
	Name  string  `json:"name"`
	FromV float64 `json:"fromCramersV"`
	ToV   float64 `json:"toCramersV"`
	Delta float64 `json:"delta"` // ToV - FromV
}

// ProvDrift records the top-ranked provenance PC of a unit or cell
// moving between the two runs: the leak is still there but is now
// attributed to a different instruction.
type ProvDrift struct {
	Name       string `json:"name"` // unit (report diff) or cell (matrix diff)
	FromPC     uint64 `json:"fromPC"`
	ToPC       uint64 `json:"toPC"`
	FromSymbol string `json:"fromSymbol,omitempty"`
	ToSymbol   string `json:"toSymbol,omitempty"`
}

// Diff is the deterministic delta between two report digests. A
// regression is a unit flipping clean→leaky (or a leaky unit
// appearing); an improvement is the reverse.
type Diff struct {
	Workload string `json:"workload"`
	// FromWorkload is set when the two sides analysed differently named
	// programs — the normal case for a "introduce a leak, diff it"
	// exercise; cells and units still compare by name.
	FromWorkload string `json:"fromWorkload,omitempty"`
	FromConfig   string `json:"fromConfig,omitempty"`
	ToConfig     string `json:"toConfig,omitempty"`
	FromLabel    string `json:"fromLabel,omitempty"`
	ToLabel      string `json:"toLabel,omitempty"`
	FromLeaky    bool   `json:"fromLeaky"`
	ToLeaky      bool   `json:"toLeaky"`

	Flips      []VerdictFlip `json:"flips,omitempty"`
	Added      []string      `json:"addedUnits,omitempty"`   // units only in the new run
	Removed    []string      `json:"removedUnits,omitempty"` // units only in the old run
	VDrifts    []VDrift      `json:"vDrifts,omitempty"`
	ProvDrifts []ProvDrift   `json:"provenanceDrifts,omitempty"`

	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// Regression reports whether the diff contains at least one clean→leaky
// transition — the condition CI gates on.
func (d *Diff) Regression() bool { return d.Regressions > 0 }

// JSON renders the diff as indented, deterministic JSON.
func (d *Diff) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// topProvByName extracts, per unit, the strongest (first-listed)
// provenance attribution of a ranked TopProvenance list.
func topProvByName(entries []MatrixProv) map[string]MatrixProv {
	top := make(map[string]MatrixProv, len(entries))
	for _, e := range entries {
		if _, seen := top[e.Unit]; !seen {
			top[e.Unit] = e
		}
	}
	return top
}

// BuildDiff computes the deterministic delta between two report
// digests. Units compare by name, in the new run's unit order; the
// old run's units are consulted for removals in their own order.
func BuildDiff(from, to *ReportDigest, opts DiffOptions) *Diff {
	d := &Diff{
		Workload:   to.Workload,
		FromConfig: from.Config,
		ToConfig:   to.Config,
		FromLabel:  opts.FromLabel,
		ToLabel:    opts.ToLabel,
		FromLeaky:  from.Leaky,
		ToLeaky:    to.Leaky,
	}
	if from.Workload != to.Workload {
		d.FromWorkload = from.Workload
	}
	pairByName(from.Units, to.Units, func(u *DigestUnit) string { return u.Unit }, func(p, u *DigestUnit) {
		switch {
		case u == nil:
			d.Removed = append(d.Removed, p.Unit)
		case p == nil:
			d.Added = append(d.Added, u.Unit)
			if u.Leaky {
				d.Regressions++
			}
		default:
			tally(VerdictFlip{Name: u.Unit, FromLeaky: p.Leaky, ToLeaky: u.Leaky, FromV: p.V, ToV: u.V},
				opts.vdelta(), &d.Flips, &d.VDrifts, &d.Regressions, &d.Improvements)
		}
	})
	// Provenance drift: the top-ranked attribution of a unit moved to a
	// different PC, in the new digest's ranking order.
	fromTop := topProvByName(from.TopProvenance)
	reported := make(map[string]bool)
	for _, e := range to.TopProvenance {
		if reported[e.Unit] {
			continue
		}
		reported[e.Unit] = true
		if p, ok := fromTop[e.Unit]; ok && p.PC != e.PC {
			d.ProvDrifts = append(d.ProvDrifts, ProvDrift{
				Name: e.Unit, FromPC: p.PC, ToPC: e.PC,
				FromSymbol: p.Symbol, ToSymbol: e.Symbol,
			})
		}
	}
	return d
}

// CellSummary names a grid cell present on only one side of a matrix
// diff.
type CellSummary struct {
	Name  string  `json:"name"`
	Leaky bool    `json:"leaky"`
	MaxV  float64 `json:"maxCramersV"`
}

// MatrixDiff is the deterministic delta between two matrix sweeps:
// which cells changed verdict between commit A and commit B, as a
// first-class CI artifact. Cells compare by name (the canonical
// axis=value spelling), so reordered or re-parallelised sweeps of the
// same grid diff clean.
type MatrixDiff struct {
	Workload     string `json:"workload"`
	FromWorkload string `json:"fromWorkload,omitempty"`
	FromLabel    string `json:"fromLabel,omitempty"`
	ToLabel      string `json:"toLabel,omitempty"`

	// Cells counts the cells present in both sweeps; Unchanged those of
	// them with nothing to report.
	Cells     int `json:"cells"`
	Unchanged int `json:"unchanged"`

	Flips      []VerdictFlip `json:"flips,omitempty"`
	Added      []CellSummary `json:"addedCells,omitempty"`
	Removed    []CellSummary `json:"removedCells,omitempty"`
	VDrifts    []VDrift      `json:"vDrifts,omitempty"`
	ProvDrifts []ProvDrift   `json:"provenanceDrifts,omitempty"`
	// Errors lists cells that failed on either side; their verdicts are
	// not compared.
	Errors []string `json:"errors,omitempty"`

	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// Regression reports whether the diff contains at least one clean→leaky
// cell transition (including a leaky cell appearing in a grown grid).
func (d *MatrixDiff) Regression() bool { return d.Regressions > 0 }

// JSON renders the diff as indented, deterministic JSON.
func (d *MatrixDiff) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// flagged lists a cell's flagged unit names.
func flagged(c *MatrixCell) []string {
	if len(c.Flagged) == 0 {
		return nil
	}
	out := make([]string, 0, len(c.Flagged))
	for _, f := range c.Flagged {
		out = append(out, f.Unit)
	}
	return out
}

// BuildMatrixDiff computes the deterministic delta between two matrix
// artifacts. The new sweep's cell enumeration drives the comparison
// order, the old sweep's its removals, so the output is byte-stable
// for a given pair of artifacts.
func BuildMatrixDiff(from, to *MatrixArtifact, opts DiffOptions) *MatrixDiff {
	d := &MatrixDiff{
		Workload:  to.Workload,
		FromLabel: opts.FromLabel,
		ToLabel:   opts.ToLabel,
	}
	if from.Workload != to.Workload {
		d.FromWorkload = from.Workload
	}
	pairByName(from.Cells, to.Cells, func(c *MatrixCell) string { return c.Name }, func(p, c *MatrixCell) {
		switch {
		case c == nil:
			d.Removed = append(d.Removed, CellSummary{Name: p.Name, Leaky: p.Leaky, MaxV: p.MaxV})
			return
		case p == nil:
			d.Added = append(d.Added, CellSummary{Name: c.Name, Leaky: c.Leaky, MaxV: c.MaxV})
			if c.Leaky {
				d.Regressions++
			}
			return
		}
		d.Cells++
		if p.Err != "" || c.Err != "" {
			side := "both sweeps"
			switch {
			case p.Err == "":
				side = "new sweep"
			case c.Err == "":
				side = "old sweep"
			}
			d.Errors = append(d.Errors, fmt.Sprintf("%s: failed in %s", c.Name, side))
			return
		}
		changed := tally(VerdictFlip{
			Name: c.Name, FromLeaky: p.Leaky, ToLeaky: c.Leaky,
			FromV: p.MaxV, ToV: c.MaxV,
			FromFlagged: flagged(p), ToFlagged: flagged(c),
		}, opts.vdelta(), &d.Flips, &d.VDrifts, &d.Regressions, &d.Improvements)
		if len(p.TopProvenance) > 0 && len(c.TopProvenance) > 0 &&
			p.TopProvenance[0].PC != c.TopProvenance[0].PC {
			changed = true
			d.ProvDrifts = append(d.ProvDrifts, ProvDrift{
				Name:   c.Name,
				FromPC: p.TopProvenance[0].PC, ToPC: c.TopProvenance[0].PC,
				FromSymbol: p.TopProvenance[0].Symbol, ToSymbol: c.TopProvenance[0].Symbol,
			})
		}
		if !changed {
			d.Unchanged++
		}
	})
	return d
}

// pairByName is the name-keyed walk both diffs compare by: each
// element of to in order, with its namesake in from (the last one; nil
// when added), then each element of from whose name to lacks, with nil.
func pairByName[T any](from, to []T, name func(*T) string, visit func(from, to *T)) {
	prev := make(map[string]int, len(from))
	for i := range from {
		prev[name(&from[i])] = i
	}
	seen := make(map[string]bool, len(to))
	for i := range to {
		n := name(&to[i])
		seen[n] = true
		var p *T
		if j, ok := prev[n]; ok {
			p = &from[j]
		}
		visit(p, &to[i])
	}
	for i := range from {
		if !seen[name(&from[i])] {
			visit(&from[i], nil)
		}
	}
}

// tally adds one namesake pair's verdict change to a diff: a changed
// verdict is a flip, a regression when it turns leaky and an
// improvement otherwise; a held verdict whose V moved by at least
// vdelta is drift. It reports whether it added either.
func tally(f VerdictFlip, vdelta float64, flips *[]VerdictFlip, drifts *[]VDrift, regressions, improvements *int) bool {
	switch {
	case f.FromLeaky != f.ToLeaky:
		*flips = append(*flips, f)
		if f.ToLeaky {
			*regressions++
		} else {
			*improvements++
		}
	case abs(f.ToV-f.FromV) >= vdelta:
		*drifts = append(*drifts, VDrift{Name: f.Name, FromV: f.FromV, ToV: f.ToV, Delta: f.ToV - f.FromV})
	default:
		return false
	}
	return true
}

// HTML renders the matrix diff as a self-contained document: the two
// sweeps' verdict heatmaps side by side with flipped cells ringed
// orange, followed by the flip/drift details. from and to must be the
// artifacts the diff was built from.
func (d *MatrixDiff) HTML(from, to *MatrixArtifact) string {
	fromName, toName := sideNames(d.FromLabel, d.ToLabel)
	fromTitle := from.Workload
	if d.FromWorkload != "" {
		fromTitle = d.FromWorkload
	}
	meta := fmt.Sprintf(`%d common cells, %d unchanged; <span class="flip">%d verdict
flip(s)</span> ringed orange, %d regression(s), %d improvement(s). Hover a
cell for details.`, d.Cells, d.Unchanged, len(d.Flips), d.Regressions, d.Improvements)
	w := html.EscapeString(d.Workload)
	return page("matrix diff — "+w, matrixCSS, "Matrix diff — "+w, meta, "matrix diff", func(b *strings.Builder) {
		highlight := flipped(d.Flips)
		side := func(name, title string, a *MatrixArtifact) {
			fmt.Fprintf(b, `<div class="side"><h2>%s — %s</h2>`+"\n", html.EscapeString(name), html.EscapeString(title))
			a.svg(b, highlight)
			b.WriteString("</div>\n")
		}
		side(fromName, fromTitle, from)
		side(toName, to.Workload, to)
		var cells []string
		for _, c := range d.Added {
			cells = append(cells, fmt.Sprintf("added %s (%s, max V %.3f)", c.Name, verdict(c.Leaky), c.MaxV))
		}
		for _, c := range d.Removed {
			cells = append(cells, fmt.Sprintf("removed %s (%s, max V %.3f)", c.Name, verdict(c.Leaky), c.MaxV))
		}
		writeDetails(b, d.Flips, true, d.VDrifts, d.ProvDrifts, "Grid changes", cells, d.Errors)
	})
}

// HTML renders the report diff as a self-contained document: a
// two-row, per-unit heatmap (baseline over current, flips highlighted)
// plus the detail lists. from and to must be the digests the diff was
// built from.
func (d *Diff) HTML(from, to *ReportDigest) string {
	fromName, toName := sideNames(d.FromLabel, d.ToLabel)
	meta := fmt.Sprintf(`%s (%s) vs %s (%s); <span class="flip">%d verdict flip(s)</span>
ringed orange, %d regression(s), %d improvement(s).`,
		html.EscapeString(fromName), verdict(d.FromLeaky), html.EscapeString(toName), verdict(d.ToLeaky),
		len(d.Flips), d.Regressions, d.Improvements)
	w := html.EscapeString(d.Workload)
	return page("report diff — "+w, matrixCSS, "Report diff — "+w, meta, "report diff", func(b *strings.Builder) {
		// A column per unit of the new run, then the removed units; row
		// 0 is the old run, row 1 the new.
		g := grid{cell: 34, labelW: 76, headerH: 70, tilt: true, rows: []string{fromName, toName}}
		var cols [][2]*DigestUnit
		pairByName(from.Units, to.Units, func(u *DigestUnit) string { return u.Unit }, func(p, u *DigestUnit) {
			cols = append(cols, [2]*DigestUnit{p, u})
			if u == nil {
				u = p
			}
			g.cols = append(g.cols, u.Unit)
		})
		highlight := flipped(d.Flips)
		g.at = func(r, c int) (fill, stroke, title string, ok bool) {
			if c >= len(cols) {
				return "", "", "", false
			}
			name, u := g.cols[c], cols[c][r]
			fill, stroke, title = "#eeeeee", "none", name+": not analysed"
			if u != nil {
				fill = heatColor(u.V, u.P < stats.DefaultPThreshold)
				if u.Leaky {
					stroke = leakStroke
				}
				title = fmt.Sprintf("%s (%s): %s, V=%.3f p=%.3g", name, g.rows[r], verdict(u.Leaky), u.V, u.P)
			}
			if highlight[name] {
				stroke, title = flipStroke, title+" — VERDICT FLIP"
			}
			return fill, stroke, title, true
		}
		g.write(b)
		var units []string
		for _, u := range d.Added {
			units = append(units, "added "+u)
		}
		for _, u := range d.Removed {
			units = append(units, "removed "+u)
		}
		writeDetails(b, d.Flips, false, d.VDrifts, d.ProvDrifts, "Unit changes", units, nil)
	})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
