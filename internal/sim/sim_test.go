package sim

import (
	"errors"
	"strings"
	"testing"

	"microsampler/internal/asm"
	"microsampler/internal/isa"
)

// runSrc assembles and runs a program to completion on cfg, returning
// the machine and result for inspection.
func runSrc(t *testing.T, cfg Config, src string) (*Machine, Result) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := m.Run(5_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, res
}

const exitStub = `
exit:
	li a7, 93
	ecall
`

func TestArithmeticProgram(t *testing.T) {
	for _, cfg := range []Config{MegaBoom(), SmallBoom()} {
		t.Run(cfg.Name, func(t *testing.T) {
			_, res := runSrc(t, cfg, `
			_start:
				li   t0, 21
				li   t1, 2
				mul  t2, t0, t1      # 42
				li   t3, 5
				divu t4, t2, t3      # 8
				remu t5, t2, t3      # 2
				add  a0, t4, t5      # 10
				slli a0, a0, 4       # 160
				addi a0, a0, -60     # 100
				j exit
			`+exitStub)
			if res.ExitCode != 100 {
				t.Errorf("exit code = %d want 100", res.ExitCode)
			}
		})
	}
}

func TestFibonacciLoop(t *testing.T) {
	_, res := runSrc(t, MegaBoom(), `
	_start:
		li   a0, 0          # fib(0)
		li   a1, 1          # fib(1)
		li   t0, 20         # n iterations
	loop:
		add  t1, a0, a1
		mv   a0, a1
		mv   a1, t1
		addi t0, t0, -1
		bnez t0, loop
		j exit
	`+exitStub)
	if res.ExitCode != 6765 { // fib(20)
		t.Errorf("exit = %d want 6765", res.ExitCode)
	}
	if res.Branches == 0 {
		t.Error("no branches recorded")
	}
}

func TestMemoryAndForwarding(t *testing.T) {
	_, res := runSrc(t, MegaBoom(), `
		.data
	buf:
		.dword 0
		.dword 0x1122334455667788
		.text
	_start:
		la   t0, buf
		li   t1, 0xDEADBEEF
		sd   t1, 0(t0)        # store then immediately load back
		ld   t2, 0(t0)
		lw   t3, 8(t0)        # 0x55667788
		lbu  t4, 15(t0)       # 0x11
		lb   t5, 12(t0)       # 0x44
		add  a0, t2, zero
		sub  a0, a0, t1       # 0 if forwardd correctly
		add  a0, a0, t3
		add  a0, a0, t4
		add  a0, a0, t5
		j exit
	`+exitStub)
	want := uint64(0x55667788 + 0x11 + 0x44)
	if res.ExitCode != want {
		t.Errorf("exit = %#x want %#x", res.ExitCode, want)
	}
}

func TestByteHalfWordAccess(t *testing.T) {
	_, res := runSrc(t, SmallBoom(), `
		.data
	buf: .zero 16
		.text
	_start:
		la  t0, buf
		li  t1, -2
		sb  t1, 0(t0)
		lb  t2, 0(t0)       # -2 sign extended
		lbu t3, 0(t0)       # 254
		li  t4, -30000
		sh  t4, 2(t0)
		lh  t5, 2(t0)       # -30000
		lhu t6, 2(t0)       # 35536
		add a0, t2, t3      # 252
		add a0, a0, t5
		add a0, a0, t6      # 252 + 5536
		j exit
	`+exitStub)
	want := uint64(252 + (-30000 + 35536))
	if res.ExitCode != want {
		t.Errorf("exit = %d want %d", res.ExitCode, want)
	}
}

func TestFunctionCallAndReturn(t *testing.T) {
	_, res := runSrc(t, MegaBoom(), `
	_start:
		li   a0, 7
		call square
		call square          # (7^2)^2 = 2401
		j exit
	square:
		mul  a0, a0, a0
		ret
	`+exitStub)
	if res.ExitCode != 2401 {
		t.Errorf("exit = %d want 2401", res.ExitCode)
	}
}

func TestRecursion(t *testing.T) {
	_, res := runSrc(t, MegaBoom(), `
	_start:
		li a0, 10
		call fact
		j exit
	fact:                    # recursive factorial
		addi sp, sp, -16
		sd   ra, 8(sp)
		sd   a0, 0(sp)
		li   t0, 2
		bltu a0, t0, base
		addi a0, a0, -1
		call fact
		ld   t1, 0(sp)
		mul  a0, a0, t1
	base:
		ld   ra, 8(sp)
		addi sp, sp, 16
		ret
	`+exitStub)
	if res.ExitCode != 3628800 {
		t.Errorf("exit = %d want 3628800", res.ExitCode)
	}
}

// TestIndirectJumpKeepsReturnAddress: only a return pops the RAS. An
// indirect jump inside a callee (jr t0) must leave the caller's return
// address in place, so the callee's ret is still predicted.
func TestIndirectJumpKeepsReturnAddress(t *testing.T) {
	for _, cfg := range []Config{MegaBoom(), SmallBoom()} {
		t.Run(cfg.Name, func(t *testing.T) {
			_, res := runSrc(t, cfg, `
			_start:
				li   s0, 200
				li   a0, 0
			loop:
				call f
				call f
				addi s0, s0, -1
				bnez s0, loop
				j exit
			f:
				addi a0, a0, 1
				la   t0, inner
				jr   t0
			inner:
				ret
			`+exitStub)
			if res.ExitCode != 400 {
				t.Fatalf("exit = %d want 400", res.ExitCode)
			}
			if res.Mispredicts >= 50 {
				t.Errorf("mispredicts = %d, want < 50: the indirect jump popped the RAS", res.Mispredicts)
			}
		})
	}
}

func TestBranchMispredictionRecovery(t *testing.T) {
	// Data-dependent alternating branch: the predictor will mispredict;
	// architectural results must still be exact.
	_, res := runSrc(t, MegaBoom(), `
	_start:
		li  t0, 100        # loop counter
		li  t1, 0          # accumulator
		li  t2, 0          # parity
	loop:
		andi t3, t0, 1
		beqz t3, even
		addi t1, t1, 3
		j    next
	even:
		addi t1, t1, 5
	next:
		addi t0, t0, -1
		bnez t0, loop
		mv   a0, t1        # 50*3 + 50*5 = 400
		j exit
	`+exitStub)
	if res.ExitCode != 400 {
		t.Errorf("exit = %d want 400", res.ExitCode)
	}
	if res.Mispredicts == 0 {
		t.Error("expected some mispredictions on alternating branch")
	}
}

func TestWriteSyscall(t *testing.T) {
	_, res := runSrc(t, SmallBoom(), `
		.data
	msg: .ascii "hello"
		.text
	_start:
		li a7, 64
		li a0, 1
		la a1, msg
		li a2, 5
		ecall
		li a0, 0
		j exit
	`+exitStub)
	if string(res.Output) != "hello" {
		t.Errorf("output = %q want %q", res.Output, "hello")
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	p, err := asm.Assemble(`
		.data
	junk: .word 0xFFFFFFFF
		.text
	_start:
		la  t0, junk
		jr  t0              # jump into data: illegal instruction
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(MegaBoom())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(100000)
	if err == nil || !strings.Contains(err.Error(), "illegal instruction") {
		t.Errorf("want illegal instruction error, got %v", err)
	}
}

func TestMaxCycles(t *testing.T) {
	p, err := asm.Assemble("_start:\n j _start\n")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(SmallBoom())
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1000)
	if !errors.Is(err, ErrMaxCycles) {
		t.Errorf("want ErrMaxCycles, got %v", err)
	}
}

func TestCacheMissTiming(t *testing.T) {
	// Touching many distinct lines must be slower than re-touching one.
	src := func(stride int) string {
		return `
		.equ STRIDE, ` + itoa(stride) + `
		.data
	buf: .zero 8192
		.text
	_start:
		la  t0, buf
		li  t1, 64          # accesses
		li  t3, 0
	loop:
		ld  t2, 0(t0)
		addi t0, t0, STRIDE
		addi t1, t1, -1
		bnez t1, loop
		li  a0, 0
		j exit
	` + exitStub
	}
	cfg := MegaBoom()
	cfg.NextLinePrefetcher = false
	_, hot := runSrc(t, cfg, src(0))
	_, cold := runSrc(t, cfg, src(128)) // every other line: misses
	if cold.Cycles <= hot.Cycles {
		t.Errorf("cold run (%d cycles) not slower than hot run (%d cycles)",
			cold.Cycles, hot.Cycles)
	}
}

func TestCboFlushCreatesMisses(t *testing.T) {
	// Repeatedly loading one line is fast; flushing it each iteration
	// forces a miss per iteration.
	src := func(flush string) string {
		return `
		.data
	buf: .zero 64
		.text
	_start:
		la  t0, buf
		li  t1, 50
	loop:
		ld  t2, 0(t0)
		` + flush + `
		addi t1, t1, -1
		bnez t1, loop
		li a0, 0
		j exit
	` + exitStub
	}
	_, fast := runSrc(t, MegaBoom(), src(""))
	_, slow := runSrc(t, MegaBoom(), src("cbo.flush (t0)"))
	if slow.Cycles < fast.Cycles+200 {
		t.Errorf("flush run (%d) should be much slower than cached run (%d)",
			slow.Cycles, fast.Cycles)
	}
}

func TestNextLinePrefetcherHelpsStreaming(t *testing.T) {
	src := `
		.data
	buf: .zero 16384
		.text
	_start:
		la  t0, buf
		li  t1, 128
	loop:
		ld  t2, 0(t0)
		addi t0, t0, 64     # next line each time: streaming
		addi t1, t1, -1
		bnez t1, loop
		li a0, 0
		j exit
	` + exitStub
	with := MegaBoom()
	without := MegaBoom()
	without.NextLinePrefetcher = false
	_, rWith := runSrc(t, with, src)
	_, rWithout := runSrc(t, without, src)
	if rWith.Cycles >= rWithout.Cycles {
		t.Errorf("prefetcher run (%d) not faster than baseline (%d)",
			rWith.Cycles, rWithout.Cycles)
	}
}

func TestFastBypassCorrectness(t *testing.T) {
	// A dependence chain through ANDs with a zero operand: the bypass
	// removes the AND latency from the chain, so the run must be faster
	// and architecturally identical.
	src := `
	_start:
		li  t0, 0
		li  t1, 0x5A5A
		li  t2, 200
		li  s2, 0x1234
	loop:
		and s2, s2, t0      # zero operand: bypass fires
		xor s2, s2, t1      # chain continues through s2
		and s2, s2, t0
		xor s2, s2, t1
		and s2, s2, t0
		xor s2, s2, t1
		and s2, s2, t0
		xor s2, s2, t1
		addi t2, t2, -1
		bnez t2, loop
		mv  a0, s2          # always t1
		j exit
	` + exitStub
	base := MegaBoom()
	fb := MegaBoom()
	fb.FastBypass = true
	_, rBase := runSrc(t, base, src)
	_, rFB := runSrc(t, fb, src)
	if rBase.ExitCode != rFB.ExitCode {
		t.Errorf("fast bypass changed result: %d vs %d", rBase.ExitCode, rFB.ExitCode)
	}
	if rBase.ExitCode != 0x5A5A {
		t.Errorf("exit = %#x want 0x5A5A", rBase.ExitCode)
	}
	if rFB.Cycles >= rBase.Cycles {
		t.Errorf("fast bypass (%d cycles) not faster than baseline (%d)",
			rFB.Cycles, rBase.Cycles)
	}
}

func TestMegaFasterThanSmall(t *testing.T) {
	src := `
	_start:
		li  t0, 500
		li  t1, 1
		li  t2, 3
	loop:
		mul t1, t1, t2
		addi t1, t1, 7
		and t1, t1, t2
		or  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		li a0, 0
		j exit
	` + exitStub
	_, mega := runSrc(t, MegaBoom(), src)
	_, small := runSrc(t, SmallBoom(), src)
	if mega.Cycles >= small.Cycles {
		t.Errorf("MegaBoom (%d cycles) not faster than SmallBoom (%d)",
			mega.Cycles, small.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	_start:
		li  t0, 300
		li  a0, 1
	loop:
		mul a0, a0, t0
		remu a0, a0, t0
		addi a0, a0, 13
		andi t1, t0, 3
		beqz t1, skip
		xori a0, a0, 0x55
	skip:
		addi t0, t0, -1
		bnez t0, loop
		j exit
	` + exitStub
	_, r1 := runSrc(t, MegaBoom(), src)
	_, r2 := runSrc(t, MegaBoom(), src)
	if r1.Cycles != r2.Cycles || r1.ExitCode != r2.ExitCode ||
		r1.Mispredicts != r2.Mispredicts {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestDataDepDivideTiming(t *testing.T) {
	src := func(dividend string) string {
		return `
	_start:
		li  t0, 100
		li  t1, ` + dividend + `
		li  t2, 3
	loop:
		divu t3, t1, t2
		addi t0, t0, -1
		bnez t0, loop
		li a0, 0
		j exit
	` + exitStub
	}
	cfg := MegaBoom()
	cfg.DataDepDivide = true
	_, smallDiv := runSrc(t, cfg, src("7"))
	_, bigDiv := runSrc(t, cfg, src("0x7FFFFFFFFFFFFFFF"))
	if bigDiv.Cycles <= smallDiv.Cycles {
		t.Errorf("data-dependent divide: big dividend (%d) not slower than small (%d)",
			bigDiv.Cycles, smallDiv.Cycles)
	}
	// With the default fixed-latency divider the two must match closely
	// (the li sequence differs by a couple of instructions).
	fixed := MegaBoom()
	_, f1 := runSrc(t, fixed, src("7"))
	_, f2 := runSrc(t, fixed, src("0x7FFFFFFFFFFFFFFF"))
	diff := f2.Cycles - f1.Cycles
	if diff < 0 {
		diff = -diff
	}
	if diff > 20 {
		t.Errorf("fixed divider run cycles differ too much: %d vs %d", f1.Cycles, f2.Cycles)
	}
}

func TestMarkTracerEvents(t *testing.T) {
	var marks []isa.MarkKind
	var classes []uint64
	tr := &testTracer{
		onMark: func(_ int64, k isa.MarkKind, class uint64) {
			marks = append(marks, k)
			classes = append(classes, class)
		},
	}
	p, err := asm.Assemble(`
	_start:
		roi.begin
		li  t0, 3
	loop:
		andi t1, t0, 1
		iter.begin t1
		add  t2, t0, t0
		iter.end
		addi t0, t0, -1
		bnez t0, loop
		roi.end
		li a0, 0
		li a7, 93
		ecall
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(MegaBoom())
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	m.SetTracer(tr)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	wantKinds := []isa.MarkKind{
		isa.MarkROIBegin,
		isa.MarkIterBegin, isa.MarkIterEnd,
		isa.MarkIterBegin, isa.MarkIterEnd,
		isa.MarkIterBegin, isa.MarkIterEnd,
		isa.MarkROIEnd,
	}
	if len(marks) != len(wantKinds) {
		t.Fatalf("marks = %v want %v", marks, wantKinds)
	}
	for i := range wantKinds {
		if marks[i] != wantKinds[i] {
			t.Errorf("mark %d = %v want %v", i, marks[i], wantKinds[i])
		}
	}
	// Classes for t0 = 3,2,1 -> parity 1,0,1.
	gotClasses := []uint64{classes[1], classes[3], classes[5]}
	if gotClasses[0] != 1 || gotClasses[1] != 0 || gotClasses[2] != 1 {
		t.Errorf("iteration classes = %v want [1 0 1]", gotClasses)
	}
}

type testTracer struct {
	onCycle func(*Probe)
	onMark  func(int64, isa.MarkKind, uint64)
}

func (t *testTracer) OnCycle(p *Probe) {
	if t.onCycle != nil {
		t.onCycle(p)
	}
}

func (t *testTracer) OnMark(cycle int64, k isa.MarkKind, class uint64) {
	if t.onMark != nil {
		t.onMark(cycle, k, class)
	}
}

func TestProbeViews(t *testing.T) {
	seenStore := false
	seenALU := false
	seenROB := false
	var row []uint64
	tr := &testTracer{onCycle: func(p *Probe) {
		for _, e := range p.StoreQueue() {
			if e.Valid {
				seenStore = true
			}
		}
		row = p.AppendALUBusy(row[:0])
		for _, pc := range row {
			if pc != 0 {
				seenALU = true
			}
		}
		row = p.AppendROBPCs(row[:0])
		if p.ROBOccupancy() > 0 && len(row) == p.ROBOccupancy() {
			seenROB = true
		}
	}}
	p, err := asm.Assemble(`
		.data
	buf: .zero 64
		.text
	_start:
		la t0, buf
		li t1, 20
	loop:
		sd t1, 0(t0)
		ld t2, 0(t0)
		add t3, t2, t1
		addi t1, t1, -1
		bnez t1, loop
		li a0, 0
		li a7, 93
		ecall
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(MegaBoom())
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	m.SetTracer(tr)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !seenStore || !seenALU || !seenROB {
		t.Errorf("probe views missing activity: store=%v alu=%v rob=%v",
			seenStore, seenALU, seenROB)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := MegaBoom()
	bad.FetchWidth = 0
	if _, err := New(bad); err == nil {
		t.Error("expected config error for zero FetchWidth")
	}
	bad = MegaBoom()
	bad.LineBytes = 48
	if _, err := New(bad); err == nil {
		t.Error("expected config error for non-power-of-two LineBytes")
	}
}

func TestStateBits(t *testing.T) {
	mega, small := MegaBoom().StateBits(), SmallBoom().StateBits()
	if mega <= small {
		t.Errorf("MegaBoom state bits (%d) should exceed SmallBoom (%d)", mega, small)
	}
	// The paper reports ~700K state bits for the largest BOOM; our
	// estimate should be the same order of magnitude.
	if mega < 300_000 || mega > 3_000_000 {
		t.Errorf("MegaBoom state bits %d out of expected range", mega)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
