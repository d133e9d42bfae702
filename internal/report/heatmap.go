package report

import (
	"encoding/json"
	"fmt"
	"html"
	"strconv"
	"strings"

	"microsampler/internal/core"
	"microsampler/internal/stats"
)

// Heatmap is the units × iteration-window leakage matrix: for every
// tracked unit, the per-window Cramér's V of the snapshot-vs-class
// contingency table restricted to that window of iterations. It is the
// visual-inspection artifact of a verification (in the spirit of
// MicroWalk's leakage reports): *when* during the execution each unit
// correlated with the secret, not just whether it ever did.
//
// The matrix is built from deterministic inputs (iteration order and
// per-iteration snapshot hashes), so JSON renderings are byte-identical
// across repeated runs of the same seed.
type Heatmap struct {
	Workload   string        `json:"workload"`
	Config     string        `json:"config"`
	Iterations int           `json:"iterations"`
	Windows    int           `json:"windows"`
	Units      []HeatmapUnit `json:"units"`
}

// HeatmapUnit is one row of the matrix.
type HeatmapUnit struct {
	Unit string `json:"unit"`
	// Leaky is the whole-run verdict, copied from the report's
	// UnitResult so the heatmap flags exactly the units core.Report
	// flags.
	Leaky bool          `json:"leaky"`
	V     float64       `json:"cramersV"` // whole-run association
	P     float64       `json:"pValue"`
	Cells []HeatmapCell `json:"cells"`
}

// HeatmapCell is one unit × window entry.
type HeatmapCell struct {
	// Start (inclusive) and End (exclusive) bound the window's
	// iteration indices into Report.Iterations.
	Start int `json:"start"`
	End   int `json:"end"`
	// V and P measure the snapshot/class association within the
	// window; Leaky applies the paper's verdict thresholds to the
	// window alone.
	V           float64 `json:"cramersV"`
	P           float64 `json:"pValue"`
	Significant bool    `json:"significant"`
	Leaky       bool    `json:"leaky"`
	// Unique counts distinct snapshot hashes inside the window.
	Unique int `json:"uniqueSnapshots"`
}

// DefaultHeatmapWindows is the window count used when callers pass a
// non-positive value to BuildHeatmap.
const DefaultHeatmapWindows = 16

// BuildHeatmap bins a report's per-iteration snapshot hashes into
// `windows` contiguous iteration windows and computes the association
// statistics per unit per window. Windows is clamped to the iteration
// count; non-positive selects DefaultHeatmapWindows. The report must
// carry IterHashes (reports produced by this version's Verify always
// do).
func BuildHeatmap(rep *core.Report, windows int) (*Heatmap, error) {
	n := len(rep.Iterations)
	if n == 0 {
		return nil, fmt.Errorf("heatmap: report has no iterations")
	}
	if windows <= 0 {
		windows = DefaultHeatmapWindows
	}
	if windows > n {
		windows = n
	}
	hm := &Heatmap{
		Workload:   rep.Workload,
		Config:     rep.Config,
		Iterations: n,
		Windows:    windows,
		Units:      make([]HeatmapUnit, 0, len(rep.Units)),
	}
	for _, u := range rep.Units {
		hashes := rep.IterHashes[u.Unit]
		if len(hashes) != n {
			return nil, fmt.Errorf("heatmap: unit %v has %d iteration hashes for %d iterations (report built without per-iteration evidence?)",
				u.Unit, len(hashes), n)
		}
		hu := HeatmapUnit{
			Unit:  u.Unit.String(),
			Leaky: u.Leaky(),
			V:     u.Assoc.V,
			P:     u.Assoc.P,
			Cells: make([]HeatmapCell, 0, windows),
		}
		for w := 0; w < windows; w++ {
			start, end := w*n/windows, (w+1)*n/windows
			t := stats.NewTable()
			for i := start; i < end; i++ {
				t.Add(rep.Iterations[i].Class, hashes[i], 1)
			}
			a := t.Analyze()
			hu.Cells = append(hu.Cells, HeatmapCell{
				Start:       start,
				End:         end,
				V:           a.V,
				P:           a.P,
				Significant: a.Significant(),
				Leaky:       a.Leaky(),
				Unique:      t.Cols(),
			})
		}
		hm.Units = append(hm.Units, hu)
	}
	return hm, nil
}

// JSON renders the heatmap as indented, deterministic JSON: field
// order is fixed by the struct layout and all slices are in unit /
// window order.
func (h *Heatmap) JSON() ([]byte, error) {
	return json.MarshalIndent(h, "", "  ")
}

// heatColor maps a Cramér's V in [0,1] onto a white→red ramp (the
// conventional leakage-intensity scale). Statistically insignificant
// cells render on a grey ramp instead, so strong-but-unsupported V
// values (tiny windows) do not read as leaks.
func heatColor(v float64, significant bool) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	if !significant {
		c := 255 - int(v*40+0.5) // faint grey shading
		return fmt.Sprintf("#%02x%02x%02x", c, c, c)
	}
	// white (255,255,255) → strong red (178,24,43)
	r := 255 - int(v*float64(255-178)+0.5)
	g := 255 - int(v*float64(255-24)+0.5)
	b := 255 - int(v*float64(255-43)+0.5)
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// HTML renders the heatmap as a self-contained single-file HTML
// document with an inline SVG matrix: units as rows (Table IV order),
// iteration windows as columns, cell colour by windowed Cramér's V,
// a red ring around cells meeting the leak verdict, and a per-cell
// <title> tooltip with the exact numbers.
func (h *Heatmap) HTML() string {
	meta := fmt.Sprintf(`%d iterations in %d windows; cell colour is the window&#39;s
Cram&#233;r&#39;s V (grey when not statistically significant), red ring marks
windows meeting the leak verdict. Row suffix &#9733; marks units flagged by the
whole-run report.`, h.Iterations, h.Windows)
	heading := fmt.Sprintf("Leakage heatmap — %s on %s", html.EscapeString(h.Workload), html.EscapeString(h.Config))
	return page("leakage heatmap — "+html.EscapeString(h.Workload), heatmapCSS, heading, meta, "heatmap", func(b *strings.Builder) {
		// Column headers: the first iteration index of every 4th window.
		g := grid{cell: 26, labelW: 110, headerH: 26, step: 4}
		for w := 0; w < h.Windows; w++ {
			g.cols = append(g.cols, strconv.Itoa(w*h.Iterations/h.Windows))
		}
		for _, u := range h.Units {
			if u.Leaky {
				u.Unit += " ★"
			}
			g.rows = append(g.rows, u.Unit)
		}
		g.at = func(r, w int) (fill, stroke, title string, ok bool) {
			u := h.Units[r]
			if w >= len(u.Cells) {
				return "", "", "", false
			}
			c := u.Cells[w]
			stroke = "none"
			if c.Leaky {
				stroke = leakStroke
			}
			return heatColor(c.V, c.Significant), stroke, fmt.Sprintf("%s window %d (iterations %d-%d): V=%.3f p=%.2e unique=%d",
				u.Unit, w, c.Start, c.End-1, c.V, c.P, c.Unique), true
		}
		g.write(b)
	})
}

const heatmapCSS = `body { font: 14px/1.4 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 18px; }
.meta { color: #555; margin-bottom: 12px; }
text { font: 11px system-ui, sans-serif; fill: #333; }
.legend { margin-top: 10px; color: #555; font-size: 12px; }
`
