package report

import (
	"encoding/json"
	"fmt"
	"html"
	"strings"

	"microsampler/internal/core"
)

// MatrixArtifact is the serialisable outcome of a configuration-grid
// sweep (core.VerifyMatrix): per-cell verdicts plus, for every leaky
// cell, the top provenance entries localising the leak to instructions.
// Like the heatmap, it is built exclusively from deterministic inputs —
// no wall-clock quantities — so JSON renderings are byte-identical
// across repeated sweeps of the same seed, whatever the parallelism.
type MatrixArtifact struct {
	Workload string       `json:"workload"`
	Grid     []core.Axis  `json:"grid"`
	Cells    []MatrixCell `json:"cells"`
}

// MatrixCell is one grid cell's verdict plus its leak localisation.
type MatrixCell struct {
	core.CellResult
	// TopProvenance lists the strongest instruction attributions of a
	// leaky cell (BuildProvenance order), empty for clean or failed
	// cells.
	TopProvenance []MatrixProv `json:"topProvenance,omitempty"`
}

// MatrixProv is one instruction attribution of a leaky cell.
type MatrixProv struct {
	Unit   string  `json:"unit"`
	PC     uint64  `json:"pc"`
	Symbol string  `json:"symbol,omitempty"`
	Via    string  `json:"via"`
	V      float64 `json:"cramersV"`
}

// DefaultMatrixProvenance is the per-cell attribution count used when
// BuildMatrix is passed a non-positive topN.
const DefaultMatrixProvenance = 3

// BuildMatrix distils a sweep into its artifact: verdicts straight from
// the cells, and for each leaky cell with a report the top provenance
// entries. A cell whose provenance cannot be built keeps its verdict
// and records the reason in the cell error, mirroring VerifyMatrix's
// per-cell failure containment.
func BuildMatrix(m *core.Matrix, topN int) *MatrixArtifact {
	if topN <= 0 {
		topN = DefaultMatrixProvenance
	}
	a := &MatrixArtifact{
		Workload: m.Workload,
		Grid:     m.Grid,
		Cells:    make([]MatrixCell, 0, len(m.Cells)),
	}
	for _, c := range m.Cells {
		mc := MatrixCell{CellResult: c}
		if c.Leaky && c.Report != nil {
			pv, err := BuildProvenance(c.Report)
			if err != nil {
				mc.Err = fmt.Sprintf("provenance: %v", err)
			} else {
				for i, e := range pv.Entries {
					if i >= topN {
						break
					}
					mc.TopProvenance = append(mc.TopProvenance, MatrixProv{
						Unit: e.Unit, PC: e.PC, Symbol: e.Symbol, Via: e.Via, V: e.V,
					})
				}
			}
		}
		a.Cells = append(a.Cells, mc)
	}
	return a
}

// Summary is the sweep's verdict summary, derived by core.Matrix.Summary
// from the artifact's cell results — what a replayed artifact offers in
// place of the sweep that rendered it.
func (a *MatrixArtifact) Summary() core.Summary {
	m := core.Matrix{Workload: a.Workload, Grid: a.Grid, Cells: make([]core.CellResult, len(a.Cells))}
	for i, c := range a.Cells {
		m.Cells[i] = c.CellResult
	}
	return m.Summary()
}

// JSON renders the artifact as indented, deterministic JSON.
func (a *MatrixArtifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// HTML renders the artifact as a self-contained verdict heatmap: the
// last grid axis spans the columns, the remaining axes the rows, cell
// colour is the cell's strongest significant Cramér's V on the same
// white→red ramp as the leakage heatmap, a red ring marks leaky cells,
// and tooltips carry the flagged units and top attribution. Failed
// cells render hatched grey with the error in the tooltip. No external
// assets.
func (a *MatrixArtifact) HTML() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>MicroSampler verdict matrix — %s</title>
<style>
%s</style>
</head>
<body>
<h1>Verdict matrix — %s</h1>
<div class="meta">%d configuration cells; cell colour is the strongest
statistically significant Cram&#233;r&#39;s V, red ring marks leaky cells,
grey marks failed cells. Hover a cell for the flagged units and top
attribution.</div>
`,
		html.EscapeString(a.Workload), matrixCSS, html.EscapeString(a.Workload), len(a.Cells))
	b.WriteString(a.svg(nil))
	b.WriteString(`<div class="legend">Generated by microsampler; data identical to the matrix JSON artifact.</div>` + "\n")
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// matrixCSS is the shared style of the matrix heatmap and the matrix
// diff documents.
const matrixCSS = `body { font: 14px/1.4 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 18px; }
h2 { font-size: 15px; }
.meta { color: #555; margin-bottom: 12px; }
text { font: 11px system-ui, sans-serif; fill: #333; }
.legend { margin-top: 10px; color: #555; font-size: 12px; }
.side { display: inline-block; vertical-align: top; margin-right: 32px; }
.flip { color: #b35806; }
`

// svg renders the artifact's verdict grid as one self-contained <svg>
// element. Cells named in highlight are ringed thick orange — the diff
// renderer marks verdict flips this way — with the reason appended to
// the tooltip.
func (a *MatrixArtifact) svg(highlight map[string]bool) string {
	const (
		cell    = 34 // px per matrix cell
		gap     = 2
		headerH = 26
	)
	// Columns: the last axis. Rows: the cartesian product of the rest,
	// which is exactly how VerifyMatrix enumerates cells (last axis
	// fastest), so cell i lives at (i/cols, i%cols).
	cols := 1
	var colAxis core.Axis
	if len(a.Grid) > 0 {
		colAxis = a.Grid[len(a.Grid)-1]
		cols = len(colAxis.Values)
	}
	rows := (len(a.Cells) + cols - 1) / cols

	rowLabel := func(r int) string {
		i := r * cols
		if i >= len(a.Cells) {
			return ""
		}
		c := a.Cells[i]
		if len(c.Axes) <= 1 {
			return "(defaults)"
		}
		parts := make([]string, 0, len(c.Axes)-1)
		for j := 0; j < len(c.Axes)-1; j++ {
			parts = append(parts, c.Axes[j]+"="+c.Values[j])
		}
		return strings.Join(parts, ",")
	}
	labelW := 120
	for r := 0; r < rows; r++ {
		if w := 10 + 7*len(rowLabel(r)); w > labelW {
			labelW = w
		}
	}
	svgW := labelW + cols*(cell+gap) + gap
	svgH := headerH + rows*(cell+gap) + gap

	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img">`,
		svgW, svgH, svgW, svgH)
	b.WriteString("\n")

	// Column headers: the last axis's values.
	for w := 0; w < cols; w++ {
		x := labelW + w*(cell+gap) + gap
		label := ""
		if len(colAxis.Values) > 0 {
			label = colAxis.Name + "=" + colAxis.Values[w]
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, x, headerH-8, html.EscapeString(label))
		b.WriteString("\n")
	}

	for i, c := range a.Cells {
		r, w := i/cols, i%cols
		x := labelW + w*(cell+gap) + gap
		y := headerH + r*(cell+gap) + gap
		if w == 0 {
			fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%s</text>`,
				labelW-6, y+cell-12, html.EscapeString(rowLabel(r)))
			b.WriteString("\n")
		}
		fill := heatColor(c.MaxV, c.MaxVUnit != "")
		stroke, strokeW := "none", 2
		if c.Leaky {
			stroke = "#b2182b"
		}
		title := c.Name
		switch {
		case c.Err != "":
			fill = "#cccccc"
			title += ": ERROR " + c.Err
		case c.Leaky:
			units := make([]string, 0, len(c.Flagged))
			for _, f := range c.Flagged {
				units = append(units, fmt.Sprintf("%s (V=%.3f)", f.Unit, f.V))
			}
			title += ": LEAKY " + strings.Join(units, ", ")
			if len(c.TopProvenance) > 0 {
				p := c.TopProvenance[0]
				title += fmt.Sprintf("; top attribution %s @ %s (pc=%#x, via %s)",
					p.Unit, p.Symbol, p.PC, p.Via)
			}
		default:
			title += fmt.Sprintf(": clean (max significant V=%.3f)", c.MaxV)
		}
		if highlight[c.Name] {
			stroke, strokeW = "#b35806", 4
			title += " — VERDICT FLIP"
		}
		fmt.Fprintf(&b,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="%s" stroke-width="%d"><title>%s</title></rect>`,
			x, y, cell, cell, fill, stroke, strokeW, html.EscapeString(title))
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}
