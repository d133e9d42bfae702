package report

import (
	"encoding/json"
	"fmt"
	"html"
	"sort"
	"strings"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/stats"
	"microsampler/internal/trace"
)

// Provenance is the instruction-level attribution of a verification's
// verdicts: for each tracked unit, the program counters whose
// event streams statistically separate the secret classes, ranked by
// association strength. It answers the question the per-unit report
// leaves open — *which instruction* made SQ-ADDR (or any other unit)
// leak — in the spirit of MicroWalk's leakage localization.
//
// Built from deterministic inputs (merged provenance streams and the
// iteration order), so JSON renderings are byte-identical across
// repeated runs of the same seed.
type Provenance struct {
	Workload   string      `json:"workload"`
	Config     string      `json:"config"`
	Iterations int         `json:"iterations"`
	Entries    []ProvEntry `json:"entries"`
	// Unattributed lists class-dependent evidence whose value resolved
	// to no instruction (e.g. a prefetched line no load ever touched).
	Unattributed []ProvValue `json:"unattributed,omitempty"`
}

// ProvEntry attributes class-dependent microarchitectural behaviour to
// one instruction of one unit.
type ProvEntry struct {
	Unit   string `json:"unit"`
	PC     uint64 `json:"pc"`
	Symbol string `json:"symbol,omitempty"` // nearest preceding text label
	Disasm string `json:"disasm,omitempty"` // decoded instruction
	// Via explains the attribution path: "direct" (the unit's events
	// carry the PC), "store-addr" or "load-addr" (the event value is an
	// address resolved through the store/load attribution maps).
	Via         string  `json:"via"`
	V           float64 `json:"cramersV"`
	P           float64 `json:"pValue"`
	Significant bool    `json:"significant"`
	Leaky       bool    `json:"leaky"`
	// Events counts the unit events this entry's streams contributed
	// across kept iterations.
	Events uint64 `json:"events"`
	// Values samples the resolved event values (addresses) for
	// value-keyed units, as hex strings.
	Values []string `json:"values,omitempty"`
}

// ProvValue is class-dependent evidence that resolved to no
// instruction.
type ProvValue struct {
	Unit   string  `json:"unit"`
	Value  uint64  `json:"value"`
	V      float64 `json:"cramersV"`
	P      float64 `json:"pValue"`
	Events uint64  `json:"events"`
}

// maxProvValues bounds the example-value sample kept per entry.
const maxProvValues = 4

// BuildProvenance ranks the per-PC leakage evidence of a report. For
// every provenance stream it builds the dense per-iteration hash
// sequence (iterations without events hash to the empty stream),
// computes Cramér's V against the secret classes, resolves value keys
// to the instructions that produced the address, and keeps the
// statistically significant entries ranked by V. A report with no
// provenance streams (e.g. deserialised from an older artifact) yields
// an empty ranking rather than an error. A report whose verification
// recorded no provenance has it rebuilt first (core.Report.LoadProvenance),
// and a replay that fails is an error.
func BuildProvenance(rep *core.Report) (*Provenance, error) {
	if err := rep.LoadProvenance(); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	n := len(rep.Iterations)
	if n == 0 {
		return nil, fmt.Errorf("provenance: report has no iterations")
	}
	pv := &Provenance{
		Workload:   rep.Workload,
		Config:     rep.Config,
		Iterations: n,
	}
	empty := trace.EmptyStreamHash()
	dense := make([]uint64, n)
	type agg struct {
		unit   trace.Unit
		pc     uint64
		via    string
		a      stats.Association
		events uint64
		values []uint64
	}
	var entries []agg
	for _, up := range rep.Provenance {
		perPC := map[uint64]*agg{}
		var pcs []uint64
		for _, s := range up.Streams {
			for i := range dense {
				dense[i] = empty
			}
			for i, it := range s.Iters {
				dense[it] = s.Hashes[i]
			}
			t := stats.NewTable()
			for i := 0; i < n; i++ {
				t.Add(rep.Iterations[i].Class, dense[i], 1)
			}
			a := t.Analyze()
			if up.Direct {
				if !a.Significant() {
					continue
				}
				entries = append(entries, agg{
					unit: up.Unit, pc: s.Key, via: "direct", a: a, events: s.Events,
				})
				continue
			}
			resolved := resolveValue(rep, up.Unit, s.Key)
			if len(resolved) == 0 {
				if a.Significant() {
					pv.Unattributed = append(pv.Unattributed, ProvValue{
						Unit: up.Unit.String(), Value: s.Key,
						V: a.V, P: a.P, Events: s.Events,
					})
				}
				continue
			}
			for _, r := range resolved {
				g := perPC[r.pc]
				if g == nil {
					g = &agg{unit: up.Unit, pc: r.pc, via: r.via}
					perPC[r.pc] = g
					pcs = append(pcs, r.pc)
				}
				// Keep the strongest association among the values this
				// PC produced: one secret-indexed instruction touches
				// many addresses, each a weaker witness than the best.
				if a.V > g.a.V || (a.V == g.a.V && a.P < g.a.P) {
					g.a = a
				}
				g.events += s.Events
				if len(g.values) < maxProvValues {
					g.values = append(g.values, s.Key)
				}
			}
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			g := perPC[pc]
			if !g.a.Significant() {
				continue
			}
			entries = append(entries, *g)
		}
	}

	unitRank := make(map[trace.Unit]int, 16)
	for i, u := range trace.AllUnits() {
		unitRank[u] = i
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.a.V != b.a.V {
			return a.a.V > b.a.V
		}
		if a.events != b.events {
			return a.events > b.events
		}
		if unitRank[a.unit] != unitRank[b.unit] {
			return unitRank[a.unit] < unitRank[b.unit]
		}
		return a.pc < b.pc
	})

	pv.Entries = make([]ProvEntry, 0, len(entries))
	for _, g := range entries {
		e := ProvEntry{
			Unit:        g.unit.String(),
			PC:          g.pc,
			Via:         g.via,
			V:           g.a.V,
			P:           g.a.P,
			Significant: g.a.Significant(),
			Leaky:       g.a.Leaky(),
			Events:      g.events,
		}
		if rep.Program != nil {
			e.Symbol = rep.Program.SymbolAt(g.pc)
			e.Disasm = disasmAt(rep.Program, g.pc)
		}
		for _, v := range g.values {
			e.Values = append(e.Values, fmt.Sprintf("%#x", v))
		}
		pv.Entries = append(pv.Entries, e)
	}
	return pv, nil
}

// resolvedPC is one instruction a value key resolved to.
type resolvedPC struct {
	pc  uint64
	via string
}

// resolveValue maps an observed value of a value-keyed unit back to the
// instructions that produced the address, through the report's
// store-writer and load-reader attribution maps. The match granularity
// follows the unit (trace.Unit.ValueOf).
func resolveValue(rep *core.Report, u trace.Unit, v uint64) []resolvedPC {
	var out []resolvedPC
	seen := map[uint64]bool{}
	collect := func(m map[uint64][]uint64, via string) {
		addrs := make([]uint64, 0, len(m))
		for addr := range m {
			if u.ValueOf(addr) == v {
				addrs = append(addrs, addr)
			}
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, addr := range addrs {
			for _, pc := range m[addr] {
				if !seen[pc] {
					seen[pc] = true
					out = append(out, resolvedPC{pc: pc, via: via})
				}
			}
		}
	}
	collect(rep.StoreWriters, "store-addr")
	collect(rep.LoadReaders, "load-addr")
	return out
}

// disasmAt decodes the instruction at pc, or "" when pc lies outside
// the text segment.
func disasmAt(p *asm.Program, pc uint64) string {
	if pc < p.TextBase || pc+4 > p.TextBase+uint64(len(p.Text)) || (pc-p.TextBase)%4 != 0 {
		return ""
	}
	lines := asm.Disassemble(p)
	idx := int(pc-p.TextBase) / 4
	if idx >= len(lines) || !lines[idx].Valid {
		return ""
	}
	return lines[idx].Inst.String()
}

// JSON renders the provenance as indented, deterministic JSON.
func (p *Provenance) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// HTML renders the provenance as a self-contained single-file HTML
// document: the ranked attribution table and the unattributed
// evidence.
func (p *Provenance) HTML() string { return p.HTMLWithDisasm(nil, 0, 0) }

// HTMLWithDisasm is HTML plus disassembly context around the top
// entries: up to `around` instructions on each side of each of the
// first `top` ranked PCs, with the attributed instruction highlighted.
func (p *Provenance) HTMLWithDisasm(prog *asm.Program, top, around int) string {
	meta := fmt.Sprintf(`%d iterations. Instructions ranked by the Cram&#233;r&#39;s V of
their per-iteration event streams against the secret class; rows meeting the
leak verdict are shaded.`, p.Iterations)
	heading := fmt.Sprintf("Leakage provenance — %s on %s", html.EscapeString(p.Workload), html.EscapeString(p.Config))
	return page("leakage provenance — "+html.EscapeString(p.Workload), provenanceCSS, heading, meta, "provenance", func(b *strings.Builder) {
		if len(p.Entries) == 0 {
			b.WriteString("<p>No statistically significant instruction-level evidence.</p>\n")
		} else {
			b.WriteString("<table>\n<tr><th>#</th><th>unit</th><th>pc</th><th>instruction</th><th>label</th><th>via</th><th>V</th><th>p</th><th>events</th><th>values</th></tr>\n")
			for i, e := range p.Entries {
				cls := ""
				if e.Leaky {
					cls = ` class="leaky"`
				}
				fmt.Fprintf(b,
					"<tr%s><td class=\"num\">%d</td><td>%s</td><td><code>%#x</code></td><td><code>%s</code></td><td><code>%s</code></td><td>%s</td><td class=\"num\">%.3f</td><td class=\"num\">%.2e</td><td class=\"num\">%d</td><td><code>%s</code></td></tr>\n",
					cls, i+1, html.EscapeString(e.Unit), e.PC,
					html.EscapeString(e.Disasm), html.EscapeString(e.Symbol),
					html.EscapeString(e.Via), e.V, e.P, e.Events,
					html.EscapeString(strings.Join(e.Values, " ")))
			}
			b.WriteString("</table>\n")
		}
		if len(p.Unattributed) > 0 {
			b.WriteString("<h2>Unattributed evidence</h2>\n<table>\n<tr><th>unit</th><th>value</th><th>V</th><th>p</th><th>events</th></tr>\n")
			for _, u := range p.Unattributed {
				fmt.Fprintf(b,
					"<tr><td>%s</td><td><code>%#x</code></td><td class=\"num\">%.3f</td><td class=\"num\">%.2e</td><td class=\"num\">%d</td></tr>\n",
					html.EscapeString(u.Unit), u.Value, u.V, u.P, u.Events)
			}
			b.WriteString("</table>\n")
		}
		p.writeDisasm(b, prog, top, around)
	})
}

const provenanceCSS = `body { font: 14px/1.4 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 18px; }
h2 { font-size: 15px; margin-top: 24px; }
.meta { color: #555; margin-bottom: 12px; }
table { border-collapse: collapse; }
th, td { padding: 4px 10px; border-bottom: 1px solid #ddd; text-align: left; }
th { border-bottom: 2px solid #999; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr.leaky td { background: #fdecea; }
code, pre { font: 12px/1.5 ui-monospace, monospace; }
pre { background: #f6f6f6; padding: 8px 12px; }
pre .hit { background: #fdecea; display: inline-block; width: 100%; }
.legend { margin-top: 10px; color: #555; font-size: 12px; }
`

// writeDisasm writes the disassembly context of HTMLWithDisasm; it
// writes nothing without a program, entries or a positive top.
func (p *Provenance) writeDisasm(b *strings.Builder, prog *asm.Program, top, around int) {
	if prog == nil || len(p.Entries) == 0 || top <= 0 {
		return
	}
	lines := asm.Disassemble(prog)
	if len(lines) == 0 {
		return
	}
	b.WriteString("<h2>Disassembly context</h2>\n")
	shown := map[uint64]bool{}
	count := 0
	for _, e := range p.Entries {
		if count >= top {
			break
		}
		if shown[e.PC] || e.PC < prog.TextBase {
			continue
		}
		idx := int(e.PC-prog.TextBase) / 4
		if idx >= len(lines) {
			continue
		}
		shown[e.PC] = true
		count++
		fmt.Fprintf(b, "<h2>%s &#8656; <code>%#x</code> (%s)</h2>\n<pre>",
			html.EscapeString(e.Unit), e.PC, html.EscapeString(e.Symbol))
		for i := max(idx-around, 0); i < min(idx+around+1, len(lines)); i++ {
			text := html.EscapeString(lines[i].String())
			if i == idx {
				fmt.Fprintf(b, `<span class="hit">%s   &#8592; here</span>`+"\n", text)
			} else {
				b.WriteString(text + "\n")
			}
		}
		b.WriteString("</pre>\n")
	}
}
