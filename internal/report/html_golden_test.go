package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/core"
)

// goldenProgram is the text the synthetic provenance streams point
// into: its fifth instruction (pc 0x1010 at the default text base)
// carries the leak_st label, and the segment ends fewer than four
// instructions after it, so the disassembly context is clipped at the
// end of the text.
const goldenProgram = `
	.text
_start:
	li   s1, 64
	li   s2, 24
	andi s3, s2, 1
	slli t1, s3, 6
leak_st:
	sd   s2, 0(t1)
	ld   t3, 0(t1)
	ecall
`

// TestHTMLGolden pins the bytes of every HTML document the package
// renders. msd stores these bytes and the CI gate publishes them, so a
// rendering change must show up here as a deliberate golden update
// (rerun with -update).
func TestHTMLGolden(t *testing.T) {
	cases := map[string]func(t *testing.T) string{
		// Eight windows, so the every-fourth-window column headers skip.
		"heatmap": func(t *testing.T) string {
			hm, err := BuildHeatmap(syntheticReport(), 8)
			if err != nil {
				t.Fatal(err)
			}
			return hm.HTML()
		},
		"matrix": func(t *testing.T) string {
			return BuildMatrix(sampleMatrix(t), 3).HTML()
		},
		"provenance": func(t *testing.T) string {
			prog, err := asm.Assemble(goldenProgram)
			if err != nil {
				t.Fatal(err)
			}
			rep := syntheticProvReport()
			rep.Program = prog
			pv, err := BuildProvenance(rep)
			if err != nil {
				t.Fatal(err)
			}
			return pv.HTMLWithDisasm(prog, 5, 4)
		},
		// A flip each way, V drift, provenance drift, an added and a
		// removed unit.
		"diff": func(t *testing.T) string {
			from, to := fromDigest(), toDigest()
			return BuildDiff(from, to, DiffOptions{FromLabel: "base", ToLabel: "head"}).HTML(from, to)
		},
		// Flipped tage cells, a cell that failed in the old sweep and a
		// cell added in the new one (a partial last grid row).
		"matrix_diff": func(t *testing.T) string {
			to := BuildMatrix(sampleMatrix(t), 3)
			from := mutateMatrix(to)
			from.Cells[0].Err = "sim exploded"
			to.Cells = append(to.Cells, MatrixCell{CellResult: core.CellResult{
				Cell:  core.Cell{Name: "predictor=perceptron"},
				Leaky: true, MaxV: 0.7,
			}})
			return BuildMatrixDiff(from, to, DiffOptions{FromLabel: "base", ToLabel: "head"}).HTML(from, to)
		},
	}
	for name, render := range cases {
		t.Run(name, func(t *testing.T) {
			got := []byte(render(t))
			golden := filepath.Join("testdata", name+"_golden.html")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s HTML drifted from golden (rerun with -update if intended)\ngot:\n%s", name, got)
			}
		})
	}
}
