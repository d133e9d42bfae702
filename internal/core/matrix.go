package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"microsampler/internal/sim"
)

// The microarchitecture matrix: Verify swept over a declarative grid of
// core configurations. A constant-time verdict is a property of a
// (program, microarchitecture) pair, not of a program — the corpus'
// adversarial twins (fast bypass, data-dependent divide, TAGE, stride
// prefetcher) all hold the program fixed and flip one hardware axis.
// VerifyMatrix makes that sweep a first-class operation: a grid spec
// names the axes and values, every cell runs the full pipeline, and the
// result is a per-cell verdict matrix suitable for deterministic
// artifacts (report.RenderMatrixJSON / RenderMatrixHTML).

// Axis is one dimension of the configuration grid: a named hardware
// toggle and the values it sweeps, in sweep order.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// gridAxes is the grid vocabulary: every sweepable axis in canonical
// order, its legal values (the first is the default), and how each
// value shapes a sim.Config.
var gridAxes = []struct {
	name   string
	values []string
	apply  func(cfg *sim.Config, value string)
}{
	{"base", []string{"mega", "small"}, func(cfg *sim.Config, v string) {
		*cfg, _ = sim.ConfigByName(v) // both values are valid names
	}},
	{"fastbypass", []string{"off", "on"}, func(cfg *sim.Config, v string) {
		cfg.FastBypass = v == "on"
	}},
	{"divider", []string{"fixed", "datadep"}, func(cfg *sim.Config, v string) {
		cfg.DataDepDivide = v == "datadep"
	}},
	{"prefetch", []string{"nlp", "none", "stride", "both"}, func(cfg *sim.Config, v string) {
		cfg.NextLinePrefetcher = v == "nlp" || v == "both"
		cfg.StridePrefetcher = v == "stride" || v == "both"
	}},
	{"predictor", []string{"gshare", "tage"}, func(cfg *sim.Config, v string) {
		cfg.TAGEPredictor = v == "tage"
	}},
}

// GridSpec is a declarative configuration grid: the axes to sweep. Axes
// not listed stay pinned at their defaults (MegaBoom, no fast bypass,
// fixed-latency divider, next-line prefetcher, gshare).
type GridSpec struct {
	Axes []Axis `json:"axes"`
}

// DefaultGrid sweeps the two base configurations against the predictor
// and prefetcher models — the hardware-space axes that add leakage
// surfaces rather than merely re-timing existing ones.
func DefaultGrid() GridSpec {
	return GridSpec{Axes: []Axis{
		{Name: "base", Values: []string{"mega", "small"}},
		{Name: "prefetch", Values: []string{"nlp", "none", "stride"}},
		{Name: "predictor", Values: []string{"gshare", "tage"}},
	}}
}

// ParseGridSpec parses a textual grid spec of the form
//
//	axis=value,value;axis=value,...
//
// e.g. "base=small,mega;prefetch=none,stride;predictor=gshare,tage",
// or "default" (any case) for DefaultGrid. Unknown axes or values, a
// repeated axis (contradictory toggles), a repeated value (duplicate
// cells), and empty specs are rejected.
func ParseGridSpec(s string) (GridSpec, error) {
	var g GridSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return g, fmt.Errorf("matrix: empty grid spec")
	}
	if strings.EqualFold(s, "default") {
		return DefaultGrid(), nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return g, fmt.Errorf("matrix: empty axis in grid spec %q", s)
		}
		name, vals, ok := strings.Cut(part, "=")
		if !ok {
			return g, fmt.Errorf("matrix: axis %q missing '=value,...'", part)
		}
		name = strings.TrimSpace(name)
		def := axisDef(name)
		if def == nil {
			return g, fmt.Errorf("matrix: unknown axis %q (have %s)", name, axisNames())
		}
		if seen[name] {
			return g, fmt.Errorf("matrix: axis %q listed twice (contradictory toggles)", name)
		}
		seen[name] = true
		ax := Axis{Name: name}
		dup := map[string]bool{}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return g, fmt.Errorf("matrix: axis %q has an empty value", name)
			}
			if !validValue(def.values, v) {
				return g, fmt.Errorf("matrix: axis %q has no value %q (have %s)",
					name, v, strings.Join(def.values, ", "))
			}
			if dup[v] {
				return g, fmt.Errorf("matrix: axis %q lists value %q twice (duplicate cells)", name, v)
			}
			dup[v] = true
			ax.Values = append(ax.Values, v)
		}
		g.Axes = append(g.Axes, ax)
	}
	return g, g.Validate()
}

func axisDef(name string) *struct {
	name   string
	values []string
	apply  func(cfg *sim.Config, value string)
} {
	for i := range gridAxes {
		if gridAxes[i].name == name {
			return &gridAxes[i]
		}
	}
	return nil
}

func axisNames() string {
	names := make([]string, len(gridAxes))
	for i, a := range gridAxes {
		names[i] = a.name
	}
	return strings.Join(names, ", ")
}

func validValue(legal []string, v string) bool {
	for _, l := range legal {
		if l == v {
			return true
		}
	}
	return false
}

// Validate checks a programmatically built GridSpec against the axis
// vocabulary: at least one axis, known names and values, no repeated
// axis and no repeated value.
func (g GridSpec) Validate() error {
	if len(g.Axes) == 0 {
		return fmt.Errorf("matrix: grid has no axes")
	}
	seen := map[string]bool{}
	for _, ax := range g.Axes {
		def := axisDef(ax.Name)
		if def == nil {
			return fmt.Errorf("matrix: unknown axis %q (have %s)", ax.Name, axisNames())
		}
		if seen[ax.Name] {
			return fmt.Errorf("matrix: axis %q listed twice (contradictory toggles)", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("matrix: axis %q sweeps no values", ax.Name)
		}
		dup := map[string]bool{}
		for _, v := range ax.Values {
			if !validValue(def.values, v) {
				return fmt.Errorf("matrix: axis %q has no value %q (have %s)",
					ax.Name, v, strings.Join(def.values, ", "))
			}
			if dup[v] {
				return fmt.Errorf("matrix: axis %q lists value %q twice (duplicate cells)", ax.Name, v)
			}
			dup[v] = true
		}
	}
	return nil
}

// canonical returns the grid's axes reordered into canonical axis order
// (the order of gridAxes), so equivalent specs enumerate identical cell
// sequences.
func (g GridSpec) canonical() []Axis {
	out := make([]Axis, 0, len(g.Axes))
	for _, def := range gridAxes {
		for _, ax := range g.Axes {
			if ax.Name == def.name {
				out = append(out, ax)
			}
		}
	}
	return out
}

// Cell is one grid point: a value for every swept axis, in canonical
// axis order.
type Cell struct {
	// Name is the canonical identifier, "axis=value" pairs comma-joined.
	Name string `json:"name"`
	// Axes and Values are the swept axes and this cell's coordinates.
	Axes   []string `json:"axes"`
	Values []string `json:"values"`
}

// Config materialises the cell into a simulator configuration: defaults
// first (MegaBoom, fixed divider, next-line prefetcher, gshare), then
// each swept axis applied in canonical order. The base axis, when
// swept, is applied first regardless, so it cannot clobber the others.
func (c Cell) Config() (sim.Config, error) {
	cfg := sim.MegaBoom()
	// Base preset first: applying it resets every toggle.
	for i, name := range c.Axes {
		if name == "base" {
			def := axisDef(name)
			def.apply(&cfg, c.Values[i])
		}
	}
	for i, name := range c.Axes {
		if name == "base" {
			continue
		}
		def := axisDef(name)
		if def == nil {
			return sim.Config{}, fmt.Errorf("matrix: cell %q has unknown axis %q", c.Name, name)
		}
		if !validValue(def.values, c.Values[i]) {
			return sim.Config{}, fmt.Errorf("matrix: cell %q has no value %q for axis %q",
				c.Name, c.Values[i], name)
		}
		def.apply(&cfg, c.Values[i])
	}
	return cfg, nil
}

// Cells enumerates the grid's cartesian product in canonical axis order,
// last axis fastest — a deterministic enumeration for any equivalent
// spec.
func (g GridSpec) Cells() []Cell {
	axes := g.canonical()
	total := 1
	for _, ax := range axes {
		total *= len(ax.Values)
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(axes))
	for {
		c := Cell{Axes: make([]string, len(axes)), Values: make([]string, len(axes))}
		parts := make([]string, len(axes))
		for i, ax := range axes {
			c.Axes[i] = ax.Name
			c.Values[i] = ax.Values[idx[i]]
			parts[i] = ax.Name + "=" + c.Values[i]
		}
		c.Name = strings.Join(parts, ",")
		cells = append(cells, c)
		// Odometer increment, last axis fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return cells
		}
	}
}

// MatrixOptions configures a grid sweep. The embedded Options apply to
// every cell's verification; Options.Config is overridden per cell.
type MatrixOptions struct {
	Options
	// Grid is the configuration grid (default DefaultGrid).
	Grid GridSpec
	// CellParallel bounds the number of cells verified concurrently: 0
	// or 1 means sequential, ParallelAuto (-1) one worker per CPU. It
	// composes with Options.Parallel (the per-cell run parallelism);
	// sweeping many cheap cells favours CellParallel, few expensive
	// cells favour Parallel.
	CellParallel int
}

// UnitVerdict is one flagged unit of one cell, with the association
// behind the verdict.
type UnitVerdict struct {
	Unit string  `json:"unit"`
	V    float64 `json:"v"`
	P    float64 `json:"p"`
}

// CellResult is the verdict of one grid cell. Wall-clock quantities are
// deliberately absent: serialising a matrix must be byte-identical
// across runs (the simulator and the statistics are deterministic).
type CellResult struct {
	Cell
	// ConfigName is the resolved sim configuration preset.
	ConfigName string `json:"config"`
	// Leaky is the cell verdict: any unit over both thresholds.
	Leaky bool `json:"leaky"`
	// Flagged lists the leaky units in Table IV order.
	Flagged []UnitVerdict `json:"flaggedUnits,omitempty"`
	// MaxV/MaxVUnit give the strongest statistically significant
	// association, flagged or not — the margin of the verdict.
	MaxV     float64 `json:"maxSignificantV"`
	MaxVUnit string  `json:"maxVUnit,omitempty"`
	// Iterations kept and cycles simulated across the cell's runs.
	Iterations int   `json:"iterations"`
	SimCycles  int64 `json:"simCycles"`
	// Err records a failed cell (assembly, simulation, no iterations)
	// without aborting the sweep; the other cells still report.
	Err string `json:"error,omitempty"`

	// Report is the cell's full verification outcome (nil when Err is
	// set). Excluded from serialisation; report.RenderMatrixJSON distils
	// it into the artifact.
	Report *Report `json:"-"`
}

// Matrix is a full grid sweep outcome: one workload, every cell.
type Matrix struct {
	Workload string       `json:"workload"`
	Grid     []Axis       `json:"grid"`
	Cells    []CellResult `json:"cells"`
}

// CellByName returns a cell result by its canonical name.
func (m *Matrix) CellByName(name string) (*CellResult, bool) {
	for i := range m.Cells {
		if m.Cells[i].Name == name {
			return &m.Cells[i], true
		}
	}
	return nil, false
}

// LeakyCells returns the names of the cells with a leaky verdict.
func (m *Matrix) LeakyCells() []string {
	var out []string
	for _, c := range m.Cells {
		if c.Leaky {
			out = append(out, c.Name)
		}
	}
	return out
}

// VerifyMatrix sweeps the workload over a configuration grid.
func VerifyMatrix(w Workload, opts MatrixOptions) (*Matrix, error) {
	return VerifyMatrixContext(context.Background(), w, opts)
}

// VerifyMatrixContext runs the full verification pipeline once per grid
// cell, reusing the per-cell worker pool, retry layer and telemetry of
// VerifyContext. Cells are verified by a fixed pool of CellParallel
// workers claiming cell indices from a shared counter — the same
// scheme VerifyContext uses for runs — and merged in cell order, so the
// matrix is deterministic for any parallelism. A failing cell records
// its error and leaves the sweep running; only a cancelled context or
// an invalid grid aborts the whole matrix.
func VerifyMatrixContext(ctx context.Context, w Workload, opts MatrixOptions) (*Matrix, error) {
	grid := opts.Grid
	if len(grid.Axes) == 0 {
		grid = DefaultGrid()
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if opts.CellParallel < ParallelAuto {
		return nil, fmt.Errorf("core: MatrixOptions.CellParallel must be >= %d (ParallelAuto), got %d",
			ParallelAuto, opts.CellParallel)
	}
	cells := grid.Cells()
	m := &Matrix{Workload: w.Name, Grid: grid.canonical(), Cells: make([]CellResult, len(cells))}
	if opts.Metrics != nil {
		opts.Metrics.Counter("verify_matrix_total").Inc()
		opts.Metrics.Counter("verify_matrix_cells_total").Add(uint64(len(cells)))
	}

	verifyCell := func(i int) {
		cr := CellResult{Cell: cells[i]}
		defer func() { m.Cells[i] = cr }()
		cfg, err := cells[i].Config()
		if err != nil {
			cr.Err = err.Error()
			return
		}
		cr.ConfigName = cfg.Name
		o := opts.Options
		o.Config = cfg
		// Every cell gets its own run ID: with a caller-supplied ID the
		// cell name is suffixed; without one the cell name itself is the
		// ID. An empty per-cell ID would make cells indistinguishable in
		// logs and flight-recorder dumps.
		if o.RunID != "" {
			o.RunID = o.RunID + "/" + cells[i].Name
		} else {
			o.RunID = cells[i].Name
		}
		rep, err := VerifyContext(ctx, w, o)
		if err != nil {
			cr.Err = err.Error()
			return
		}
		cr.Report = rep
		cr.Iterations = len(rep.Iterations)
		cr.SimCycles = rep.SimCycles
		for _, u := range rep.Units {
			if u.Assoc.Significant() && u.Assoc.V > cr.MaxV {
				cr.MaxV = u.Assoc.V
				cr.MaxVUnit = u.Unit.String()
			}
			if u.Leaky() {
				cr.Leaky = true
				cr.Flagged = append(cr.Flagged, UnitVerdict{
					Unit: u.Unit.String(), V: u.Assoc.V, P: u.Assoc.P,
				})
			}
		}
	}

	workers := opts.CellParallel
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers <= 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i := range cells {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			verifyCell(i)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) || ctx.Err() != nil {
						return
					}
					verifyCell(i)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
