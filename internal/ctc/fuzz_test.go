package ctc

import (
	"strings"
	"testing"

	"microsampler/internal/asm"
)

// FuzzCompile feeds arbitrary source through every lowering strategy.
// Compile must never panic, and whatever it accepts must assemble once
// the names the source calls without defining — which Compile emits as
// external calls — are given a label.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		ccopySrc,
		"func f(x) { return x + 1; }",
		"func f(a, b) { var c = a * b; if (c < 10 && a != b) { c = c << 2; } else { c = ~c; } return c; }",
		"func f(p) { while (load8(p)) { store8(p, 0); p = p + 1; } return g(p, 3); }",
		"func f(x) { if (x) { g(1, x); } else { g(2, x); } return -x; }",
		"func f() { return; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, s := range []Strategy{LowerPlain, LowerBalanced, LowerPreload} {
			code, err := Compile(src, s)
			if err != nil {
				continue
			}
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("Compile accepted source that Parse rejects: %v", err)
			}
			if _, err := asm.Assemble("\t.text\n" + code + externLabels(src, prog)); err != nil {
				t.Fatalf("%v output does not assemble: %v\nsource:\n%s\noutput:\n%s", s, err, src, code)
			}
		}
	})
}

// externLabels defines a returning label for each name the source
// calls but does not define: an identifier followed by "(" that names
// no builtin and no function of prog.
func externLabels(src string, prog *Program) string {
	toks, _ := lex(src) // Compile accepted src, so it lexes
	defined := map[string]bool{}
	for _, fn := range prog.Funcs {
		defined[fn.Name] = true
	}
	var b strings.Builder
	for i := 1; i < len(toks); i++ {
		name := toks[i-1].text
		if _, builtin := builtinMem[name]; toks[i-1].kind == tokIdent && toks[i].text == "(" && !builtin && !defined[name] {
			defined[name] = true
			b.WriteString(name + ":\n\tret\n")
		}
	}
	return b.String()
}
