package core

import (
	"strings"
	"testing"
)

func TestParseGridSpec(t *testing.T) {
	g, err := ParseGridSpec("base=small,mega;prefetch=none,stride;predictor=gshare,tage")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Axes) != 3 {
		t.Fatalf("axes = %d, want 3", len(g.Axes))
	}
	cells := g.Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// Canonical order: base before prefetch before predictor, last axis
	// fastest.
	if cells[0].Name != "base=small,prefetch=none,predictor=gshare" {
		t.Errorf("cells[0] = %q", cells[0].Name)
	}
	if cells[1].Name != "base=small,prefetch=none,predictor=tage" {
		t.Errorf("cells[1] = %q", cells[1].Name)
	}
	if cells[7].Name != "base=mega,prefetch=stride,predictor=tage" {
		t.Errorf("cells[7] = %q", cells[7].Name)
	}
}

// TestParseGridSpecDefault: the "default" alias, in any case, decodes
// to exactly DefaultGrid's cells.
func TestParseGridSpecDefault(t *testing.T) {
	want := DefaultGrid().Cells()
	for _, spec := range []string{"default", "DEFAULT", " Default "} {
		g, err := ParseGridSpec(spec)
		if err != nil {
			t.Fatalf("ParseGridSpec(%q): %v", spec, err)
		}
		got := g.Cells()
		if len(got) != len(want) {
			t.Fatalf("ParseGridSpec(%q): %d cells, want %d", spec, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name {
				t.Errorf("ParseGridSpec(%q) cell %d = %q, want %q", spec, i, got[i].Name, want[i].Name)
			}
		}
	}
}

func TestParseGridSpecCanonicalOrder(t *testing.T) {
	// Axis order in the spec must not matter: both orderings enumerate
	// identical cell sequences.
	a, err := ParseGridSpec("predictor=gshare,tage;base=small,mega")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseGridSpec("base=small,mega;predictor=gshare,tage")
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Cells(), b.Cells()
	if len(ca) != len(cb) {
		t.Fatalf("cell counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Name != cb[i].Name {
			t.Errorf("cell %d: %q vs %q", i, ca[i].Name, cb[i].Name)
		}
	}
}

func TestParseGridSpecRejects(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", "empty grid spec"},
		{";", "empty axis"},
		{"base=small;;predictor=tage", "empty axis"},
		{"base", "missing '=value"},
		{"warp=small,mega", "unknown axis"},
		{"base=tiny", `has no value "tiny"`},
		{"base=small;base=mega", "contradictory toggles"},
		{"base=small,small", "duplicate cells"},
		{"base=", "empty value"},
		{"base=small,,mega", "empty value"},
	}
	for _, c := range cases {
		if _, err := ParseGridSpec(c.spec); err == nil {
			t.Errorf("ParseGridSpec(%q) accepted, want error containing %q", c.spec, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseGridSpec(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

func TestGridSpecValidate(t *testing.T) {
	bad := []GridSpec{
		{},
		{Axes: []Axis{{Name: "warp", Values: []string{"x"}}}},
		{Axes: []Axis{{Name: "base"}}},
		{Axes: []Axis{{Name: "base", Values: []string{"small", "small"}}}},
		{Axes: []Axis{
			{Name: "base", Values: []string{"small"}},
			{Name: "base", Values: []string{"mega"}},
		}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, g)
		}
	}
	if err := DefaultGrid().Validate(); err != nil {
		t.Errorf("DefaultGrid invalid: %v", err)
	}
}

func TestCellConfig(t *testing.T) {
	g, err := ParseGridSpec("base=small,mega;fastbypass=off,on;divider=fixed,datadep;prefetch=none,nlp,stride,both;predictor=gshare,tage")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cells() {
		cfg, err := c.Config()
		if err != nil {
			t.Fatalf("cell %q: %v", c.Name, err)
		}
		val := func(axis string) string {
			for i, a := range c.Axes {
				if a == axis {
					return c.Values[i]
				}
			}
			return ""
		}
		wantName := "MegaBoom"
		if val("base") == "small" {
			wantName = "SmallBoom"
		}
		if cfg.Name != wantName {
			t.Errorf("cell %q: config %q, want %q", c.Name, cfg.Name, wantName)
		}
		if got, want := cfg.FastBypass, val("fastbypass") == "on"; got != want {
			t.Errorf("cell %q: FastBypass = %v", c.Name, got)
		}
		if got, want := cfg.DataDepDivide, val("divider") == "datadep"; got != want {
			t.Errorf("cell %q: DataDepDivide = %v", c.Name, got)
		}
		pf := val("prefetch")
		if got, want := cfg.NextLinePrefetcher, pf == "nlp" || pf == "both"; got != want {
			t.Errorf("cell %q: NextLinePrefetcher = %v", c.Name, got)
		}
		if got, want := cfg.StridePrefetcher, pf == "stride" || pf == "both"; got != want {
			t.Errorf("cell %q: StridePrefetcher = %v", c.Name, got)
		}
		if got, want := cfg.TAGEPredictor, val("predictor") == "tage"; got != want {
			t.Errorf("cell %q: TAGEPredictor = %v", c.Name, got)
		}
	}
}

func TestCellConfigDefaults(t *testing.T) {
	// Axes not swept stay pinned at their defaults.
	g, err := ParseGridSpec("predictor=tage")
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	cfg, err := cells[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "MegaBoom" || cfg.FastBypass || cfg.DataDepDivide ||
		!cfg.NextLinePrefetcher || cfg.StridePrefetcher || !cfg.TAGEPredictor {
		t.Errorf("defaults not pinned: %+v", cfg)
	}
}

func TestVerifyMatrixRejectsBadOptions(t *testing.T) {
	w := Workload{Name: "x", Source: "nop"}
	if _, err := VerifyMatrix(w, MatrixOptions{CellParallel: -2}); err == nil {
		t.Error("CellParallel=-2 accepted")
	}
	if _, err := VerifyMatrix(w, MatrixOptions{
		Grid: GridSpec{Axes: []Axis{{Name: "warp", Values: []string{"x"}}}},
	}); err == nil {
		t.Error("unknown axis accepted")
	}
}

// FuzzMatrixConfig fuzzes grid-spec parsing: no panic on arbitrary
// input, and every accepted spec must round-trip into a valid,
// deterministic, non-empty cell enumeration whose cells materialise
// into valid configurations.
func FuzzMatrixConfig(f *testing.F) {
	f.Add("base=small,mega;predictor=gshare,tage")
	f.Add("prefetch=none,nlp,stride,both")
	f.Add("base=small;base=mega")
	f.Add("base=small,small")
	f.Add(";;")
	f.Add("divider=datadep")
	f.Add("fastbypass=on,off;divider=fixed")
	f.Add("base==small")
	f.Add("base=small, mega ; predictor = tage")
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGridSpec(spec)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", spec, err)
		}
		cells := g.Cells()
		if len(cells) == 0 {
			t.Fatalf("accepted spec %q enumerates no cells", spec)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if c.Name == "" {
				t.Fatalf("spec %q: cell with empty name", spec)
			}
			if seen[c.Name] {
				t.Fatalf("spec %q: duplicate cell %q", spec, c.Name)
			}
			seen[c.Name] = true
			if _, err := c.Config(); err != nil {
				t.Fatalf("spec %q: cell %q: %v", spec, c.Name, err)
			}
		}
		// Re-parsing the same spec enumerates the same cells.
		g2, err := ParseGridSpec(spec)
		if err != nil {
			t.Fatalf("spec %q: second parse failed: %v", spec, err)
		}
		cells2 := g2.Cells()
		if len(cells2) != len(cells) {
			t.Fatalf("spec %q: cell count changed between parses", spec)
		}
		for i := range cells {
			if cells[i].Name != cells2[i].Name {
				t.Fatalf("spec %q: cell %d changed between parses", spec, i)
			}
		}
	})
}
