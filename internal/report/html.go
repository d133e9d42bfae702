package report

import (
	"fmt"
	"html"
	"strings"
)

// This file holds the markup every HTML document of the package
// shares: the page shell, the SVG verdict grid and the diff detail
// sections. The documents are self-contained (no external assets), so
// each can be archived next to the JSON artifact it shows.

// Cell ring colours: a leak verdict, and a verdict flip in a diff (drawn
// twice as wide).
const (
	leakStroke = "#b2182b"
	flipStroke = "#b35806"
)

// page renders a document: head with the title and inline css, the
// heading, the meta paragraph, body, and the closing legend naming the
// JSON artifact whose data the page shows. title, heading and meta are
// HTML already.
func page(title, css, heading, meta, artifact string, body func(b *strings.Builder)) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>MicroSampler %s</title>
<style>
%s</style>
</head>
<body>
<h1>%s</h1>
<div class="meta">%s</div>
`, title, css, heading, meta)
	body(&b)
	fmt.Fprintf(&b, `<div class="legend">Generated by microsampler; data identical to the %s JSON artifact.</div>
</body>
</html>
`, artifact)
	return b.String()
}

// grid is an SVG verdict grid: a row of column headers over labelled
// rows of square cells.
type grid struct {
	cell, labelW, headerH int // px
	cols                  []string
	step                  int  // header on every step-th column only (every column when 0)
	tilt                  bool // headers rotated -45°
	rows                  []string
	// at styles cell c of row r; ok is false past the row's last cell.
	at func(r, c int) (fill, stroke, title string, ok bool)
}

// write renders the grid as one <svg> element.
func (g *grid) write(b *strings.Builder) {
	const gap = 2
	w := g.labelW + len(g.cols)*(g.cell+gap) + gap
	h := g.headerH + len(g.rows)*(g.cell+gap) + gap
	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img">`+"\n", w, h, w, h)
	x := func(c int) int { return g.labelW + c*(g.cell+gap) + gap }
	baseline := g.headerH - 8
	for c, label := range g.cols {
		switch {
		case g.step > 1 && c%g.step != 0:
		case g.tilt:
			fmt.Fprintf(b, `<text x="%d" y="%d" transform="rotate(-45 %d %d)">%s</text>`+"\n",
				x(c), baseline, x(c), baseline, html.EscapeString(label))
		default:
			fmt.Fprintf(b, `<text x="%d" y="%d">%s</text>`+"\n", x(c), baseline, html.EscapeString(label))
		}
	}
	for r, label := range g.rows {
		y := g.headerH + r*(g.cell+gap) + gap
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n",
			g.labelW-6, y+g.cell/2+5, html.EscapeString(label))
		for c := 0; ; c++ {
			fill, stroke, title, ok := g.at(r, c)
			if !ok {
				break
			}
			strokeW := 2
			if stroke == flipStroke {
				strokeW = 4
			}
			fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="%s" stroke-width="%d"><title>%s</title></rect>`+"\n",
				x(c), y, g.cell, g.cell, fill, stroke, strokeW, html.EscapeString(title))
		}
	}
	b.WriteString("</svg>\n")
}

// writeDetails writes a diff's detail sections, each a titled list
// left out when empty: verdict flips (with each side's flagged units
// for grid cells), V drift, provenance drift, the membership changes
// under changesTitle, then errs.
func writeDetails(b *strings.Builder, flips []VerdictFlip, cells bool, drifts []VDrift, provs []ProvDrift,
	changesTitle string, changes, errs []string) {
	section := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(b, "<h2>%s</h2>\n<ul>\n", html.EscapeString(title))
		for _, l := range lines {
			fmt.Fprintf(b, "<li>%s</li>\n", html.EscapeString(l))
		}
		b.WriteString("</ul>\n")
	}
	var lines []string
	for _, f := range flips {
		l := fmt.Sprintf("%s: %s → %s (V %.3f → %.3f", f.Name, verdict(f.FromLeaky), verdict(f.ToLeaky), f.FromV, f.ToV)
		if cells {
			l += fmt.Sprintf("; flagged %s → %s", orNone(f.FromFlagged), orNone(f.ToFlagged))
		}
		lines = append(lines, l+")")
	}
	section("Verdict flips", lines)
	lines = nil
	for _, v := range drifts {
		lines = append(lines, fmt.Sprintf("%s: V %.3f → %.3f (Δ %+.3f)", v.Name, v.FromV, v.ToV, v.Delta))
	}
	section("Cramér's V drift", lines)
	lines = nil
	for _, p := range provs {
		lines = append(lines, fmt.Sprintf("%s: top attribution pc %#x (%s) → %#x (%s)",
			p.Name, p.FromPC, p.FromSymbol, p.ToPC, p.ToSymbol))
	}
	section("Provenance drift", lines)
	section(changesTitle, changes)
	section("Cell errors", errs)
}

// flipped is the set of names whose verdict flipped: the cells a diff
// rings orange.
func flipped(flips []VerdictFlip) map[string]bool {
	m := make(map[string]bool, len(flips))
	for _, f := range flips {
		m[f.Name] = true
	}
	return m
}

// sideNames names a diff's two sides by their labels, "baseline" and
// "current" when unlabelled.
func sideNames(from, to string) (string, string) {
	if from == "" {
		from = "baseline"
	}
	if to == "" {
		to = "current"
	}
	return from, to
}

func verdict(leaky bool) string {
	if leaky {
		return "LEAKY"
	}
	return "clean"
}

func orNone(units []string) string {
	if len(units) == 0 {
		return "none"
	}
	return strings.Join(units, "+")
}
