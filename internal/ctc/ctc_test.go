package ctc

import (
	"strings"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
)

// runFunc compiles fn, wraps it with a driver that calls `name` with
// the given arguments, runs it on the simulator and returns a0.
func runFunc(t *testing.T, src, name string, strategy Strategy, args ...uint64) uint64 {
	t.Helper()
	code, err := Compile(src, strategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	driver := "\t.text\n_start:\n"
	for i, a := range args {
		driver += "\tli a" + string(rune('0'+i)) + ", " + utoa(a) + "\n"
	}
	driver += "\tcall " + name + "\n\tli a7, 93\n\tecall\n" + code + dataSection
	prog, err := asm.Assemble(driver)
	if err != nil {
		t.Fatalf("assemble compiled output: %v\n%s", err, code)
	}
	m, err := sim.New(sim.SmallBoom())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, code)
	}
	return res.ExitCode
}

const dataSection = "\n\t.data\nscratch: .zero 256\n"

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestCompileArithmetic(t *testing.T) {
	src := `
func calc(a, b) {
	var s = a + b * 2;
	var d = (a ^ b) & 255;
	return s - d + (a % b) + (a / b);
}
`
	a, b := uint64(100), uint64(7)
	want := (a + b*2) - ((a ^ b) & 255) + a%b + a/b
	if got := runFunc(t, src, "calc", LowerPlain, a, b); got != want {
		t.Errorf("calc = %d want %d", got, want)
	}
}

func TestCompileComparisonsAndLogic(t *testing.T) {
	src := `
func cmp(a, b) {
	var r = 0;
	r = r + (a == b);
	r = r + (a != b) * 2;
	r = r + (a < b) * 4;
	r = r + (a > b) * 8;
	r = r + (a <= b) * 16;
	r = r + (a >= b) * 32;
	r = r + (a && b) * 64;
	r = r + (a || b) * 128;
	r = r + !a * 256;
	return r;
}
`
	// a=3, b=5: eq=0 ne=1 lt=1 gt=0 le=1 ge=0 and=1 or=1 !a=0
	want := uint64(0 + 2 + 4 + 0 + 16 + 0 + 64 + 128)
	if got := runFunc(t, src, "cmp", LowerPlain, 3, 5); got != want {
		t.Errorf("cmp = %d want %d", got, want)
	}
}

func TestCompileWhileLoop(t *testing.T) {
	src := `
func fact(n) {
	var r = 1;
	while (n > 1) {
		r = r * n;
		n = n - 1;
	}
	return r;
}
`
	if got := runFunc(t, src, "fact", LowerPlain, 10); got != 3628800 {
		t.Errorf("fact(10) = %d", got)
	}
}

func TestCompileIfElse(t *testing.T) {
	src := `
func pick(c, a, b) {
	if (c) {
		return a;
	} else {
		return b;
	}
}
`
	if got := runFunc(t, src, "pick", LowerPlain, 1, 11, 22); got != 11 {
		t.Errorf("pick(1) = %d", got)
	}
	if got := runFunc(t, src, "pick", LowerPlain, 0, 11, 22); got != 22 {
		t.Errorf("pick(0) = %d", got)
	}
}

func TestCompileMemoryBuiltins(t *testing.T) {
	src := `
func memtest(base) {
	store64(base, 12345);
	store8(base + 64, 77);
	var a = load64(base);
	var b = load8(base + 64);
	return a + b;
}
`
	// scratch is at the data base of the assembled program.
	code, err := Compile(src, LowerPlain)
	if err != nil {
		t.Fatal(err)
	}
	driver := "\t.text\n_start:\n\tla a0, scratch\n\tcall memtest\n\tli a7, 93\n\tecall\n" +
		code + dataSection
	prog, err := asm.Assemble(driver)
	if err != nil {
		t.Fatalf("%v\n%s", err, code)
	}
	m, _ := sim.New(sim.SmallBoom())
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 12345+77 {
		t.Errorf("memtest = %d want %d", res.ExitCode, 12345+77)
	}
}

func TestCompileNestedCalls(t *testing.T) {
	src := `
func double(x) {
	return x + x;
}
func quad(x) {
	return double(double(x)) + double(1);
}
`
	if got := runFunc(t, src, "quad", LowerPlain, 5); got != 22 {
		t.Errorf("quad(5) = %d want 22", got)
	}
}

const ccopySrc = `
func ccopy(ctl, dst, dummy, src, len) {
	if (ctl) {
		memmove(dst, src, len);
	} else {
		memmove(dummy, src, len);
	}
	return 0;
}
func memmove(dst, src, len) {
	while (len) {
		store8(dst, load8(src));
		dst = dst + 1;
		src = src + 1;
		len = len - 1;
	}
	return 0;
}
`

// runCcopy compiles ccopy with a strategy and checks which buffer the
// bytes landed in.
func runCcopy(t *testing.T, strategy Strategy, ctl uint64) (dstByte, dummyByte byte) {
	t.Helper()
	code, err := Compile(ccopySrc, strategy)
	if err != nil {
		t.Fatalf("compile(%v): %v", strategy, err)
	}
	driver := `
	.text
_start:
	li   a0, ` + utoa(ctl) + `
	la   a1, dstbuf
	la   a2, dummybuf
	la   a3, srcbuf
	li   a4, 8
	call ccopy
	li   a0, 0
	li   a7, 93
	ecall
` + code + `
	.data
dstbuf:   .zero 16
dummybuf: .zero 16
srcbuf:   .byte 0xAB, 1, 2, 3, 4, 5, 6, 7
`
	prog, err := asm.Assemble(driver)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, code)
	}
	m, _ := sim.New(sim.SmallBoom())
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, code)
	}
	return m.Memory().LoadByte(prog.MustSymbol("dstbuf")),
		m.Memory().LoadByte(prog.MustSymbol("dummybuf"))
}

func TestCcopySemanticsAcrossStrategies(t *testing.T) {
	for _, s := range []Strategy{LowerPlain, LowerBalanced, LowerPreload} {
		t.Run(s.String(), func(t *testing.T) {
			dst, dummy := runCcopy(t, s, 1)
			if dst != 0xAB || dummy != 0 {
				t.Errorf("ctl=1: dst=%#x dummy=%#x", dst, dummy)
			}
			dst, dummy = runCcopy(t, s, 0)
			if dst != 0 || dummy != 0xAB {
				t.Errorf("ctl=0: dst=%#x dummy=%#x", dst, dummy)
			}
		})
	}
}

func TestPreloadEmitsUnbalancedSequence(t *testing.T) {
	code, err := Compile(ccopySrc, LowerPreload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "ccopy_fix") {
		t.Errorf("preload lowering missing fix block:\n%s", code)
	}
	// The fix block holds exactly the two extra instructions of
	// Listing 4: a register patch and a jump back.
	idx := strings.Index(code, "ccopy_fix")
	tail := code[idx:]
	if !strings.Contains(tail, "mv   a0") || !strings.Contains(tail, "j    ccopy_go") {
		t.Errorf("fix block malformed:\n%s", tail)
	}
}

func TestBalancedEmitsBranchlessSelect(t *testing.T) {
	code, err := Compile(ccopySrc, LowerBalanced)
	if err != nil {
		t.Fatal(err)
	}
	body := extractFunc(code, "ccopy")
	if strings.Contains(body, "beqz") || strings.Contains(body, "bnez") {
		t.Errorf("balanced ccopy contains branches:\n%s", body)
	}
	for _, want := range []string{"snez", "neg", "xor", "and"} {
		if !strings.Contains(body, want) {
			t.Errorf("balanced ccopy missing %q:\n%s", want, body)
		}
	}
}

func extractFunc(code, name string) string {
	start := strings.Index(code, name+":")
	end := strings.Index(code[start:], "\tret\n")
	return code[start : start+end]
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"func f( { }",
		"func f() { var = 1; }",
		"func f() { return 1 }",
		"func f() { if x { } }",
		"func f() { 1 +; }",
		"notafunc",
		"func f() { @ }",
	}
	for _, src := range bad {
		if _, err := Compile(src, LowerPlain); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := map[string]string{
		"undefined var":  "func f() { return nope; }",
		"redeclared":     "func f(a) { var a = 1; return a; }",
		"too many parms": "func f(a,b,c,d,e,f1,g,h,i) { return 0; }",
		// Found by FuzzCompile: each output defined a symbol twice.
		"defined twice": "func f(x) { return x; } func f(y) { return y; }",
		"label clash":   "func f(x) { return x; } func f_ret() { return 0; }",
		"call to label": "func f(x) { while (x) { x = f_while1(x); } return x; }",
	}
	for name, src := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := Compile(src, LowerPlain); err == nil {
				t.Error("expected compile error")
			}
		})
	}
}

func TestCompiledOutputAssembles(t *testing.T) {
	for _, s := range []Strategy{LowerPlain, LowerBalanced, LowerPreload} {
		code, err := Compile(ccopySrc, s)
		if err != nil {
			t.Fatal(err)
		}
		full := "\t.text\n_start:\n\tli a7, 93\n\tli a0, 0\n\tecall\n" + code
		if _, err := asm.Assemble(full); err != nil {
			t.Errorf("strategy %v output does not assemble: %v", s, err)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if LowerPlain.String() != "plain" || LowerBalanced.String() != "balanced" ||
		LowerPreload.String() != "preload" || Strategy(0).String() != "strategy?" {
		t.Error("strategy names wrong")
	}
}
