package core

import "slices"

// Summary is the distilled verdict of one verification or grid sweep:
// whether it leaks, which Table IV units crossed the Cramér's V and
// p-value thresholds, the strongest association, and the work behind
// the answer. It is the one verdict summary every carrier embeds — the
// msd job table, journal and caches, cluster point results and the
// history index — so each kind is derived exactly once, by
// Report.Summary or Matrix.Summary.
type Summary struct {
	Leaky      bool     `json:"leaky"`
	LeakyUnits []string `json:"leakyUnits,omitempty"`
	// MaxV is the strongest per-unit Cramér's V of a verification, or
	// the strongest cell MaxV of a sweep.
	MaxV float64 `json:"maxCramersV,omitempty"`
	// Cells and LeakyCells summarise a sweep: grid size and the names
	// of the cells with a leaky verdict.
	Cells      int      `json:"cells,omitempty"`
	LeakyCells []string `json:"leakyCells,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	SimCycles  int64    `json:"simCycles,omitempty"`
}

// Summary distils the report: leaky units in Table IV order and MaxV
// the largest per-unit V, significant or not.
func (r *Report) Summary() Summary {
	s := Summary{Iterations: len(r.Iterations), SimCycles: r.SimCycles}
	for _, u := range r.Units {
		if u.Leaky() {
			s.LeakyUnits = append(s.LeakyUnits, u.Unit.String())
		}
		if u.Assoc.V > s.MaxV {
			s.MaxV = u.Assoc.V
		}
	}
	s.Leaky = len(s.LeakyUnits) > 0
	return s
}

// Summary distils the sweep: leaky when any cell is, leaky units the
// sorted union of the cells' flagged units, MaxV the largest cell MaxV,
// and iterations and cycles summed over the grid.
func (m *Matrix) Summary() Summary {
	s := Summary{Cells: len(m.Cells), LeakyCells: m.LeakyCells()}
	s.Leaky = len(s.LeakyCells) > 0
	for _, c := range m.Cells {
		s.Iterations += c.Iterations
		s.SimCycles += c.SimCycles
		if c.MaxV > s.MaxV {
			s.MaxV = c.MaxV
		}
		for _, f := range c.Flagged {
			if !slices.Contains(s.LeakyUnits, f.Unit) {
				s.LeakyUnits = append(s.LeakyUnits, f.Unit)
			}
		}
	}
	slices.Sort(s.LeakyUnits)
	return s
}
