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
	meta := fmt.Sprintf(`%d configuration cells; cell colour is the strongest
statistically significant Cram&#233;r&#39;s V, red ring marks leaky cells,
grey marks failed cells. Hover a cell for the flagged units and top
attribution.`, len(a.Cells))
	w := html.EscapeString(a.Workload)
	return page("verdict matrix — "+w, matrixCSS, "Verdict matrix — "+w, meta, "matrix", func(b *strings.Builder) {
		a.svg(b, nil)
	})
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

// svg writes the artifact's verdict grid. Cells named in highlight are
// ringed thick orange — the diff renderer marks verdict flips this way
// — with the reason appended to the tooltip.
func (a *MatrixArtifact) svg(b *strings.Builder, highlight map[string]bool) {
	// Columns: the last axis. Rows: the cartesian product of the rest,
	// which is exactly how VerifyMatrix enumerates cells (last axis
	// fastest), so cell i lives at (i/cols, i%cols).
	g := grid{cell: 34, labelW: 120, headerH: 26, cols: []string{""}}
	if len(a.Grid) > 0 {
		axis := a.Grid[len(a.Grid)-1]
		g.cols = g.cols[:0]
		for _, v := range axis.Values {
			g.cols = append(g.cols, axis.Name+"="+v)
		}
	}
	cols := len(g.cols)
	for i := 0; i < len(a.Cells); i += max(cols, 1) {
		label := "(defaults)"
		if c := a.Cells[i]; len(c.Axes) > 1 {
			parts := make([]string, 0, len(c.Axes)-1)
			for j := 0; j < len(c.Axes)-1; j++ {
				parts = append(parts, c.Axes[j]+"="+c.Values[j])
			}
			label = strings.Join(parts, ",")
		}
		g.rows = append(g.rows, label)
		g.labelW = max(g.labelW, 10+7*len(label))
	}
	g.at = func(r, w int) (fill, stroke, title string, ok bool) {
		i := r*cols + w
		if w >= cols || i >= len(a.Cells) {
			return "", "", "", false
		}
		c := a.Cells[i]
		fill, stroke, title = heatColor(c.MaxV, c.MaxVUnit != ""), "none", c.Name
		if c.Leaky {
			stroke = leakStroke
		}
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
			stroke, title = flipStroke, title+" — VERDICT FLIP"
		}
		return fill, stroke, title, true
	}
	g.write(b)
}
