package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
	"microsampler/internal/sim"
)

// stalenessProgram loops over one instruction, at label body, that the
// test overwrites while the loop runs.
const stalenessProgram = `
	.text
_start:
	li   s3, 2000
	li   s4, 0
loop:
body:
	addi s4, s4, 1
	addi s3, s3, -1
	bnez s3, loop
	mv   a0, s4
	li   a7, 93
	ecall
`

// fetchAfterOverwrite runs stalenessProgram until body has been fetched,
// stores word over it through Memory().Write, and steps on until body
// is fetched again. It returns the machine, body's pc and the
// instruction of that later fetch.
func fetchAfterOverwrite(t *testing.T, word uint32) (*sim.Machine, uint64, isa.Inst) {
	t.Helper()
	m, body := loadStaleness(t)
	var before uint64
	for ok := false; !ok; {
		if m.Halted() {
			t.Fatal("the loop body was never fetched")
		}
		m.Step()
		before, _, ok = m.Fetched(body)
	}
	m.Memory().Write(body, 4, uint64(word))
	for !m.Halted() {
		m.Step()
		if seq, inst, ok := m.Fetched(body); ok && seq > before {
			return m, body, inst
		}
	}
	t.Fatal("the loop body was not fetched again after the overwrite")
	return nil, 0, isa.Inst{}
}

// loadStaleness returns a machine with stalenessProgram loaded and the
// pc of its label body.
func loadStaleness(t *testing.T) (*sim.Machine, uint64) {
	t.Helper()
	prog, err := asm.Assemble(stalenessProgram)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.MegaBoom())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return m, prog.MustSymbol("body")
}

// TestFetchSeesStoreIntoText pins that fetch never serves a stale
// decoding of a text word: after a store replaces a word that has
// already been fetched, the next fetch of its pc carries the new
// instruction, or traps if the new word is illegal.
func TestFetchSeesStoreIntoText(t *testing.T) {
	want := isa.Inst{Op: isa.OpADDI, Rd: isa.S4, Rs1: isa.S4, Imm: 2}
	word, err := isa.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("valid", func(t *testing.T) {
		m, _, got := fetchAfterOverwrite(t, word)
		if got != want {
			t.Fatalf("fetch after the overwrite decoded %v, want %v", got, want)
		}
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
	})
	// A harness may patch the text after LoadProgram and before the
	// run, as a workload's Setup may: the first fetch already sees it.
	t.Run("setup", func(t *testing.T) {
		m, body := loadStaleness(t)
		m.Memory().Write(body, 4, uint64(word))
		for ok := false; !ok; {
			if m.Halted() {
				t.Fatal("the loop body was never fetched")
			}
			m.Step()
			var got isa.Inst
			if _, got, ok = m.Fetched(body); ok && got != want {
				t.Fatalf("first fetch decoded %v, want %v", got, want)
			}
		}
		res, err := m.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != 4000 {
			t.Fatalf("exit code %d, want 4000 (2000 iterations adding 2)", res.ExitCode)
		}
	})
	t.Run("illegal", func(t *testing.T) {
		const word = 0xFFFFFFFF
		if _, err := isa.Decode(word); err == nil {
			t.Fatalf("%#x decodes; the test needs an illegal word", word)
		}
		m, body, _ := fetchAfterOverwrite(t, word)
		_, err := m.Run(1_000_000)
		if want := fmt.Sprintf("sim: illegal instruction at pc %#x", body); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run after an illegal overwrite: err %v, want %q", err, want)
		}
	})
}
