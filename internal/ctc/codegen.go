package ctc

import (
	"fmt"
	"strings"
)

// Strategy selects how secret-dependent conditionals are lowered.
type Strategy int

// Lowering strategies for `if (c) f(..a..) else f(..b..)` patterns.
const (
	// LowerPlain emits ordinary branches (no hardening).
	LowerPlain Strategy = iota + 1
	// LowerBalanced emits the constant-time lowering: the differing
	// argument is selected branchlessly with mask arithmetic and a
	// single call is made (the ME-V1-MV shape).
	LowerBalanced
	// LowerPreload emits the unbalanced "optimised" sequence of the
	// paper's Listing 4: the then-arguments are preloaded into the
	// argument registers before the condition is checked, and the else
	// path patches the differing register with two extra instructions
	// (the ME-V1-CV compiler vulnerability).
	LowerPreload
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case LowerPlain:
		return "plain"
	case LowerBalanced:
		return "balanced"
	case LowerPreload:
		return "preload"
	}
	return "strategy?"
}

// CompileError reports a code-generation failure.
type CompileError struct {
	Fn  string
	Msg string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("ctc: function %s: %s", e.Fn, e.Msg)
}

var tempRegs = []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6"}
var localRegs = []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"}

// Compile parses and compiles source to assembly text using the given
// lowering strategy. Each function becomes a global label; builtins
// load8/load64/store8/store64 become memory instructions; calls to
// undefined names are emitted as external calls to same-named labels.
// A function may be defined once, and no defined or called name may
// equal a label another function emits internally ("f_ret",
// "f_while1"): the output would define a symbol twice or call into the
// middle of a body.
func Compile(src string, strategy Strategy) (string, error) {
	prog, err := Parse(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	owner := map[string]string{} // label -> the function that emits it
	var gens []*gen
	for _, fn := range prog.Funcs {
		g := &gen{fn: fn, strategy: strategy, out: &b}
		if err := g.compile(); err != nil {
			return "", err
		}
		for _, l := range g.labels {
			if prev, dup := owner[l]; dup {
				return "", g.errf("label %q is also defined by function %s", l, prev)
			}
			owner[l] = fn.Name
		}
		gens = append(gens, g)
	}
	for _, g := range gens {
		for _, callee := range g.calls {
			if fn, ok := owner[callee]; ok && fn != callee {
				return "", g.errf("call to %q, an internal label of function %s", callee, fn)
			}
		}
	}
	return b.String(), nil
}

type gen struct {
	fn       *FuncDef
	strategy Strategy
	out      *strings.Builder

	vars      map[string]string // name -> s-register
	varOrder  []string
	depth     int // live temps
	label     int
	body      strings.Builder
	spillBase int // frame offset of temp spill area

	labels []string // every label emitted
	calls  []string // every non-builtin callee
}

const spillSlots = 7

func (g *gen) errf(format string, args ...interface{}) error {
	return &CompileError{Fn: g.fn.Name, Msg: fmt.Sprintf(format, args...)}
}

func (g *gen) emit(format string, args ...interface{}) {
	fmt.Fprintf(&g.body, "\t"+format+"\n", args...)
}

func (g *gen) newLabel(hint string) string {
	g.label++
	l := fmt.Sprintf("%s_%s%d", g.fn.Name, hint, g.label)
	g.labels = append(g.labels, l)
	return l
}

func (g *gen) allocTemp() (string, error) {
	if g.depth >= len(tempRegs) {
		return "", g.errf("expression too deep (more than %d live temporaries)", len(tempRegs))
	}
	r := tempRegs[g.depth]
	g.depth++
	return r, nil
}

func (g *gen) release(n int) { g.depth -= n }

func (g *gen) declare(name string) (string, error) {
	if _, dup := g.vars[name]; dup {
		return "", g.errf("redeclared variable %q", name)
	}
	if len(g.varOrder) >= len(localRegs) {
		return "", g.errf("too many locals/parameters (max %d)", len(localRegs))
	}
	r := localRegs[len(g.varOrder)]
	g.vars[name] = r
	g.varOrder = append(g.varOrder, name)
	return r, nil
}

func (g *gen) compile() error {
	g.vars = make(map[string]string)
	if len(g.fn.Params) > 8 {
		return g.errf("more than 8 parameters")
	}
	for _, p := range g.fn.Params {
		if _, err := g.declare(p); err != nil {
			return err
		}
	}
	for i, p := range g.fn.Params {
		g.emit("mv   %s, a%d", g.vars[p], i)
	}
	if err := g.stmts(g.fn.Body); err != nil {
		return err
	}

	// Frame: ra + all local registers + temp spill area, 16-aligned.
	nSaved := 1 + len(g.varOrder)
	frame := (nSaved*8 + spillSlots*8 + 15) &^ 15
	g.spillBase = nSaved * 8

	g.labels = append(g.labels, g.fn.Name, g.fn.Name+"_ret")
	fmt.Fprintf(g.out, "%s:\n", g.fn.Name)
	fmt.Fprintf(g.out, "\taddi sp, sp, -%d\n", frame)
	fmt.Fprintf(g.out, "\tsd   ra, 0(sp)\n")
	for i, name := range g.varOrder {
		fmt.Fprintf(g.out, "\tsd   %s, %d(sp)\n", g.vars[name], (i+1)*8)
	}
	out := g.body.String()
	out = strings.ReplaceAll(out, "@SPILL", fmt.Sprintf("%d", g.spillBase))
	g.out.WriteString(out)
	fmt.Fprintf(g.out, "%s_ret:\n", g.fn.Name)
	fmt.Fprintf(g.out, "\tld   ra, 0(sp)\n")
	for i, name := range g.varOrder {
		fmt.Fprintf(g.out, "\tld   %s, %d(sp)\n", g.vars[name], (i+1)*8)
	}
	fmt.Fprintf(g.out, "\taddi sp, sp, %d\n", frame)
	fmt.Fprintf(g.out, "\tret\n")
	return nil
}

func (g *gen) stmts(list []Stmt) error {
	for _, s := range list {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s Stmt) error {
	switch st := s.(type) {
	case *VarStmt:
		r, err := g.expr(st.Init)
		if err != nil {
			return err
		}
		dst, err := g.declare(st.Name)
		if err != nil {
			return err
		}
		g.emit("mv   %s, %s", dst, r)
		g.release(1)
		return nil

	case *AssignStmt:
		dst, ok := g.vars[st.Name]
		if !ok {
			return g.errf("undefined variable %q", st.Name)
		}
		r, err := g.expr(st.Value)
		if err != nil {
			return err
		}
		g.emit("mv   %s, %s", dst, r)
		g.release(1)
		return nil

	case *ReturnStmt:
		if st.Value != nil {
			r, err := g.expr(st.Value)
			if err != nil {
				return err
			}
			g.emit("mv   a0, %s", r)
			g.release(1)
		}
		g.emit("j    %s_ret", g.fn.Name)
		return nil

	case *ExprStmt:
		r, err := g.expr(st.X)
		if err != nil {
			return err
		}
		_ = r
		g.release(1)
		return nil

	case *WhileStmt:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		fmt.Fprintf(&g.body, "%s:\n", top)
		c, err := g.expr(st.Cond)
		if err != nil {
			return err
		}
		g.emit("beqz %s, %s", c, end)
		g.release(1)
		if err := g.stmts(st.Body); err != nil {
			return err
		}
		g.emit("j    %s", top)
		fmt.Fprintf(&g.body, "%s:\n", end)
		return nil

	case *IfStmt:
		return g.ifStmt(st)
	}
	return g.errf("unsupported statement %T", s)
}

// ifStmt lowers a conditional, applying the strategy when the paper's
// dual-call pattern is recognised.
func (g *gen) ifStmt(st *IfStmt) error {
	if call1, call2, diff, ok := dualCallPattern(st); ok {
		switch g.strategy {
		case LowerBalanced:
			return g.lowerBalanced(st.Cond, call1, call2, diff)
		case LowerPreload:
			return g.lowerPreload(st, call1, call2, diff)
		}
	}
	return g.ifPlain(st)
}

// ifPlain emits the ordinary branchy lowering.
func (g *gen) ifPlain(st *IfStmt) error {
	elseL := g.newLabel("else")
	endL := g.newLabel("endif")
	c, err := g.expr(st.Cond)
	if err != nil {
		return err
	}
	g.emit("beqz %s, %s", c, elseL)
	g.release(1)
	if err := g.stmts(st.Then); err != nil {
		return err
	}
	g.emit("j    %s", endL)
	fmt.Fprintf(&g.body, "%s:\n", elseL)
	if err := g.stmts(st.Else); err != nil {
		return err
	}
	fmt.Fprintf(&g.body, "%s:\n", endL)
	return nil
}

// dualCallPattern matches `if (c) f(..a..) else f(..b..)` where the two
// calls differ in exactly one argument position.
func dualCallPattern(st *IfStmt) (then, els *CallExpr, diffIdx int, ok bool) {
	if len(st.Then) != 1 || len(st.Else) != 1 {
		return nil, nil, 0, false
	}
	t1, ok1 := st.Then[0].(*ExprStmt)
	t2, ok2 := st.Else[0].(*ExprStmt)
	if !ok1 || !ok2 {
		return nil, nil, 0, false
	}
	c1, ok1 := t1.X.(*CallExpr)
	c2, ok2 := t2.X.(*CallExpr)
	if !ok1 || !ok2 || c1.Name != c2.Name || len(c1.Args) != len(c2.Args) {
		return nil, nil, 0, false
	}
	diffIdx = -1
	for i := range c1.Args {
		if !exprEqual(c1.Args[i], c2.Args[i]) {
			if diffIdx >= 0 {
				return nil, nil, 0, false
			}
			diffIdx = i
		}
	}
	if diffIdx < 0 {
		return nil, nil, 0, false
	}
	return c1, c2, diffIdx, true
}

func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *NumExpr:
		y, ok := b.(*NumExpr)
		return ok && x.Value == y.Value
	case *IdentExpr:
		y, ok := b.(*IdentExpr)
		return ok && x.Name == y.Name
	}
	return false
}

// lowerBalanced emits the constant-time select: the differing argument
// is chosen with mask arithmetic and the call is unconditional.
func (g *gen) lowerBalanced(cond Expr, call, els *CallExpr, diff int) error {
	c, err := g.expr(cond)
	if err != nil {
		return err
	}
	thenArg, err := g.expr(call.Args[diff])
	if err != nil {
		return err
	}
	elseArg, err := g.expr(els.Args[diff])
	if err != nil {
		return err
	}
	g.emit("snez %s, %s", c, c)
	g.emit("neg  %s, %s", c, c) // mask
	g.emit("xor  %s, %s, %s", thenArg, thenArg, elseArg)
	g.emit("and  %s, %s, %s", thenArg, thenArg, c)
	g.emit("xor  %s, %s, %s", thenArg, thenArg, elseArg)
	g.release(1) // elseArg; the selected value lives in thenArg
	base := g.depth

	merged := &CallExpr{Name: call.Name, Args: append([]Expr{}, call.Args...)}
	if _, err := g.call(merged, map[int]string{diff: thenArg}); err != nil {
		return err
	}
	g.release(g.depth - base + 2) // call result, selected value, cond
	return nil
}

// lowerPreload emits the paper's Listing 4 shape: preload the then
// arguments, check the condition afterwards, and patch the differing
// register on the else path with two extra instructions.
func (g *gen) lowerPreload(st *IfStmt, call, els *CallExpr, diff int) error {
	cond := st.Cond
	elseArg, okSimple := els.Args[diff].(*IdentExpr)
	if !okSimple {
		// The optimisation only fires for register-resident operands,
		// like a compiler forwarding a local.
		return g.ifPlain(st)
	}
	c, err := g.expr(cond)
	if err != nil {
		return err
	}
	// Preload all then-arguments into the argument registers.
	if len(call.Args) > 6 {
		return g.errf("preload lowering supports at most 6 arguments")
	}
	for i, a := range call.Args {
		r, err := g.expr(a)
		if err != nil {
			return err
		}
		g.emit("mv   a%d, %s", i, r)
		g.release(1)
	}
	fix := g.newLabel("fix")
	goL := g.newLabel("go")
	end := g.newLabel("end")
	g.emit("beqz %s, %s", c, fix)
	g.release(1)
	fmt.Fprintf(&g.body, "%s:\n", goL)
	g.emit("call %s", call.Name)
	g.calls = append(g.calls, call.Name)
	g.emit("j    %s", end)
	fmt.Fprintf(&g.body, "%s:\n", fix)
	reg, ok := g.vars[elseArg.Name]
	if !ok {
		return g.errf("undefined variable %q", elseArg.Name)
	}
	g.emit("mv   a%d, %s", diff, reg)
	g.emit("j    %s", goL)
	fmt.Fprintf(&g.body, "%s:\n", end)
	return nil
}

// expr compiles an expression; the result is left in a fresh temp whose
// name is returned. The caller releases it.
func (g *gen) expr(e Expr) (string, error) {
	switch x := e.(type) {
	case *NumExpr:
		r, err := g.allocTemp()
		if err != nil {
			return "", err
		}
		g.emit("li   %s, %d", r, int64(x.Value))
		return r, nil

	case *IdentExpr:
		src, ok := g.vars[x.Name]
		if !ok {
			return "", g.errf("undefined variable %q", x.Name)
		}
		r, err := g.allocTemp()
		if err != nil {
			return "", err
		}
		g.emit("mv   %s, %s", r, src)
		return r, nil

	case *UnExpr:
		r, err := g.expr(x.X)
		if err != nil {
			return "", err
		}
		switch x.Op {
		case "-":
			g.emit("neg  %s, %s", r, r)
		case "~":
			g.emit("not  %s, %s", r, r)
		case "!":
			g.emit("seqz %s, %s", r, r)
		}
		return r, nil

	case *BinExpr:
		return g.binExpr(x)

	case *CallExpr:
		return g.call(x, nil)
	}
	return "", g.errf("unsupported expression %T", e)
}

var binOps = map[string]string{
	"+": "add", "-": "sub", "*": "mul", "/": "divu", "%": "remu",
	"&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "srl",
}

func (g *gen) binExpr(x *BinExpr) (string, error) {
	rl, err := g.expr(x.L)
	if err != nil {
		return "", err
	}
	rr, err := g.expr(x.R)
	if err != nil {
		return "", err
	}
	defer g.release(1) // rr
	if op, ok := binOps[x.Op]; ok {
		g.emit("%s  %s, %s, %s", op, rl, rl, rr)
		return rl, nil
	}
	switch x.Op {
	case "==":
		g.emit("xor  %s, %s, %s", rl, rl, rr)
		g.emit("seqz %s, %s", rl, rl)
	case "!=":
		g.emit("xor  %s, %s, %s", rl, rl, rr)
		g.emit("snez %s, %s", rl, rl)
	case "<":
		g.emit("sltu %s, %s, %s", rl, rl, rr)
	case ">":
		g.emit("sltu %s, %s, %s", rl, rr, rl)
	case "<=":
		g.emit("sltu %s, %s, %s", rl, rr, rl)
		g.emit("xori %s, %s, 1", rl, rl)
	case ">=":
		g.emit("sltu %s, %s, %s", rl, rl, rr)
		g.emit("xori %s, %s, 1", rl, rl)
	case "&&":
		g.emit("snez %s, %s", rl, rl)
		g.emit("snez %s, %s", rr, rr)
		g.emit("and  %s, %s, %s", rl, rl, rr)
	case "||":
		g.emit("or   %s, %s, %s", rl, rl, rr)
		g.emit("snez %s, %s", rl, rl)
	default:
		return "", g.errf("unsupported operator %q", x.Op)
	}
	return rl, nil
}

var builtinMem = map[string]struct {
	load bool
	op   string
}{
	"load64":  {true, "ld"},
	"load8":   {true, "lbu"},
	"store64": {false, "sd"},
	"store8":  {false, "sb"},
}

// call compiles a call; override maps argument index to a register that
// already holds the value (used by the balanced lowering).
func (g *gen) call(x *CallExpr, override map[int]string) (string, error) {
	if bi, ok := builtinMem[x.Name]; ok {
		return g.builtin(x, bi.load, bi.op)
	}
	if len(x.Args) > 8 {
		return "", g.errf("more than 8 call arguments")
	}
	base := g.depth
	regs := make([]string, len(x.Args))
	for i, a := range x.Args {
		if r, ok := override[i]; ok {
			regs[i] = r
			continue
		}
		r, err := g.expr(a)
		if err != nil {
			return "", err
		}
		regs[i] = r
	}
	// Spill temps that must survive the call (those live before the
	// argument evaluation began).
	for i := 0; i < base; i++ {
		g.emit("sd   %s, @SPILL+%d(sp)", tempRegs[i], i*8)
	}
	for i, r := range regs {
		g.emit("mv   a%d, %s", i, r)
	}
	g.emit("call %s", x.Name)
	g.calls = append(g.calls, x.Name)
	// Release the argument temps allocated here.
	g.depth = base
	r, err := g.allocTemp()
	if err != nil {
		return "", err
	}
	g.emit("mv   %s, a0", r)
	for i := 0; i < base; i++ {
		g.emit("ld   %s, @SPILL+%d(sp)", tempRegs[i], i*8)
	}
	return r, nil
}

func (g *gen) builtin(x *CallExpr, isLoad bool, op string) (string, error) {
	if isLoad {
		if len(x.Args) != 1 {
			return "", g.errf("%s expects 1 argument", x.Name)
		}
		r, err := g.expr(x.Args[0])
		if err != nil {
			return "", err
		}
		g.emit("%s   %s, 0(%s)", op, r, r)
		return r, nil
	}
	if len(x.Args) != 2 {
		return "", g.errf("%s expects 2 arguments", x.Name)
	}
	addr, err := g.expr(x.Args[0])
	if err != nil {
		return "", err
	}
	val, err := g.expr(x.Args[1])
	if err != nil {
		return "", err
	}
	g.emit("%s   %s, 0(%s)", op, val, addr)
	g.release(1) // val; addr temp becomes the statement result
	g.emit("li   %s, 0", addr)
	return addr, nil
}
