// Package isa defines the RV64IM instruction-set subset used throughout
// MicroSampler: registers, opcodes, the decoded instruction form, and
// binary encoding/decoding of the standard RISC-V 32-bit formats.
//
// In addition to the base ISA, the package defines two small extensions
// that the verification flow relies on:
//
//   - MARK: a custom-0 (opcode 0x0B) tracing instruction used to delimit
//     the security-critical region and to label algorithmic iterations
//     with their secret class value. It is the in-band equivalent of the
//     paper's trace-parser region tagging.
//   - CBOFLUSH: a Zicbom-style cache-block flush, used by the timing
//     experiments (Fig. 6) to model an attacker evicting a memory region.
package isa

import "fmt"

// Reg is an architectural integer register, x0 through x31.
type Reg uint8

// Architectural registers by ABI name.
const (
	Zero Reg = iota // x0: hardwired zero
	RA              // x1: return address
	SP              // x2: stack pointer
	GP              // x3: global pointer
	TP              // x4: thread pointer
	T0              // x5
	T1              // x6
	T2              // x7
	S0              // x8 / fp
	S1              // x9
	A0              // x10
	A1              // x11
	A2              // x12
	A3              // x13
	A4              // x14
	A5              // x15
	A6              // x16
	A7              // x17
	S2              // x18
	S3              // x19
	S4              // x20
	S5              // x21
	S6              // x22
	S7              // x23
	S8              // x24
	S9              // x25
	S10             // x26
	S11             // x27
	T3              // x28
	T4              // x29
	T5              // x30
	T6              // x31
)

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// RegByName resolves an ABI name ("a0"), numeric name ("x10") or the
// frame-pointer alias ("fp") to a register.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	if name == "fp" {
		return S0, true
	}
	if len(name) >= 2 && name[0] == 'x' {
		var n int
		if _, err := fmt.Sscanf(name, "x%d", &n); err == nil && n >= 0 && n < NumRegs {
			return Reg(n), true
		}
	}
	return 0, false
}

// Op identifies an operation (mnemonic) in the supported subset.
type Op int

// Supported operations. The set covers RV64I, the M extension, ECALL,
// FENCE, the MARK tracing extension and CBO.FLUSH.
const (
	OpInvalid Op = iota

	// RV32I/RV64I register-register.
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpADDW
	OpSUBW
	OpSLLW
	OpSRLW
	OpSRAW

	// Immediate arithmetic.
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADDIW
	OpSLLIW
	OpSRLIW
	OpSRAIW

	// Upper-immediate.
	OpLUI
	OpAUIPC

	// Control flow.
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Loads.
	OpLB
	OpLH
	OpLW
	OpLD
	OpLBU
	OpLHU
	OpLWU

	// Stores.
	OpSB
	OpSH
	OpSW
	OpSD

	// M extension.
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	OpMULW
	OpDIVW
	OpDIVUW
	OpREMW
	OpREMUW

	// System.
	OpECALL
	OpEBREAK
	OpFENCE

	// Zicbom-style cache block flush (rs1 holds the address).
	OpCBOFLUSH

	// MARK tracing extension (custom-0). Imm holds the MarkKind and rs1
	// optionally carries the iteration class value.
	OpMARK

	opCount
)

var opNames = map[Op]string{
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpADDW: "addw", OpSUBW: "subw", OpSLLW: "sllw", OpSRLW: "srlw", OpSRAW: "sraw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADDIW: "addiw", OpSLLIW: "slliw", OpSRLIW: "srliw", OpSRAIW: "sraiw",
	OpLUI: "lui", OpAUIPC: "auipc",
	OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLD: "ld", OpLBU: "lbu", OpLHU: "lhu", OpLWU: "lwu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw", OpSD: "sd",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
	OpMULW: "mulw", OpDIVW: "divw", OpDIVUW: "divuw", OpREMW: "remw", OpREMUW: "remuw",
	OpECALL: "ecall", OpEBREAK: "ebreak", OpFENCE: "fence",
	OpCBOFLUSH: "cbo.flush", OpMARK: "mark",
}

// String returns the assembler mnemonic of the operation.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MarkKind distinguishes the MARK tracing instructions.
type MarkKind int64

// Tracing marker kinds, carried in Inst.Imm of an OpMARK instruction.
const (
	MarkROIBegin  MarkKind = iota + 1 // begin security-critical region
	MarkROIEnd                        // end security-critical region
	MarkIterBegin                     // begin iteration; rs1 holds the class
	MarkIterEnd                       // end iteration
)

// Class categorizes operations for the pipeline's functional-unit routing.
type Class uint8

// Functional-unit classes.
const (
	ClassALU    Class = iota + 1 // single-cycle integer
	ClassMul                     // pipelined multiplier
	ClassDiv                     // iterative divider
	ClassLoad                    // memory load (AGU + D-cache)
	ClassStore                   // memory store (AGU + STQ)
	ClassBranch                  // conditional branch / jump
	ClassSystem                  // ecall, ebreak, fence, mark, cbo
)

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// classes maps each Op to its functional-unit class. Ops left out, and
// ops outside the table, are ALU ops.
var classes = [opCount]Class{
	OpMUL: ClassMul, OpMULH: ClassMul, OpMULHSU: ClassMul, OpMULHU: ClassMul, OpMULW: ClassMul,
	OpDIV: ClassDiv, OpDIVU: ClassDiv, OpREM: ClassDiv, OpREMU: ClassDiv,
	OpDIVW: ClassDiv, OpDIVUW: ClassDiv, OpREMW: ClassDiv, OpREMUW: ClassDiv,
	OpLB: ClassLoad, OpLH: ClassLoad, OpLW: ClassLoad, OpLD: ClassLoad,
	OpLBU: ClassLoad, OpLHU: ClassLoad, OpLWU: ClassLoad,
	OpSB: ClassStore, OpSH: ClassStore, OpSW: ClassStore, OpSD: ClassStore,
	OpJAL: ClassBranch, OpJALR: ClassBranch, OpBEQ: ClassBranch, OpBNE: ClassBranch,
	OpBLT: ClassBranch, OpBGE: ClassBranch, OpBLTU: ClassBranch, OpBGEU: ClassBranch,
	OpECALL: ClassSystem, OpEBREAK: ClassSystem, OpFENCE: ClassSystem,
	OpMARK: ClassSystem, OpCBOFLUSH: ClassSystem,
}

// Class reports the functional-unit class of the instruction.
func (i Inst) Class() Class {
	if uint(i.Op) < uint(opCount) && classes[i.Op] != 0 {
		return classes[i.Op]
	}
	return ClassALU
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool {
	switch i.Op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads memory.
func (i Inst) IsLoad() bool { return i.Class() == ClassLoad }

// IsStore reports whether the instruction writes memory.
func (i Inst) IsStore() bool { return i.Class() == ClassStore }

// WritesRd reports whether the instruction produces a register result.
func (i Inst) WritesRd() bool {
	switch i.Class() {
	case ClassStore, ClassBranch:
		return i.Op == OpJAL || i.Op == OpJALR
	case ClassSystem:
		return false
	default:
		return true
	}
}

// ReadsRs1 reports whether rs1 is a source operand.
func (i Inst) ReadsRs1() bool {
	switch i.Op {
	case OpLUI, OpAUIPC, OpJAL, OpECALL, OpEBREAK, OpFENCE:
		return false
	case OpMARK:
		return MarkKind(i.Imm) == MarkIterBegin
	}
	return true
}

// ReadsRs2 reports whether rs2 is a source operand.
func (i Inst) ReadsRs2() bool {
	switch i.Class() {
	case ClassALU, ClassMul, ClassDiv:
		switch i.Op {
		case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI,
			OpSLLI, OpSRLI, OpSRAI, OpADDIW, OpSLLIW, OpSRLIW, OpSRAIW,
			OpLUI, OpAUIPC:
			return false
		}
		return true
	case ClassStore:
		return true
	case ClassBranch:
		return i.IsCondBranch()
	}
	return false
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch i.Op {
	case OpInvalid:
		return "invalid"
	case OpECALL, OpEBREAK, OpFENCE:
		return i.Op.String()
	case OpMARK:
		switch MarkKind(i.Imm) {
		case MarkROIBegin:
			return "roi.begin"
		case MarkROIEnd:
			return "roi.end"
		case MarkIterBegin:
			return fmt.Sprintf("iter.begin %s", i.Rs1)
		case MarkIterEnd:
			return "iter.end"
		}
		return "mark?"
	case OpCBOFLUSH:
		return fmt.Sprintf("cbo.flush %d(%s)", i.Imm, i.Rs1)
	case OpLUI, OpAUIPC:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case OpJAL:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case OpJALR:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case OpSB, OpSH, OpSW, OpSD:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI,
		OpSLLI, OpSRLI, OpSRAI, OpADDIW, OpSLLIW, OpSRLIW, OpSRAIW:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}
