package isa

import "fmt"

// Decode tables: the encoding maps inverted once, indexed by funct3, or
// by (funct3, funct7) for the register-register formats. OpInvalid marks
// an unsupported encoding.
var (
	branchOps  = byFunct3(branchEnc)
	loadOps    = byFunct3(loadEnc)
	storeOps   = byFunct3(storeEnc)
	iArithOps  = byFunct3(iArithEnc)
	rTypeOps   = byFunct(rTypeEnc)
	r32TypeOps = byFunct(r32TypeEnc)
)

func byFunct3(enc map[Op]uint32) (t [8]Op) {
	for op, f3 := range enc {
		t[f3] = op
	}
	return t
}

func byFunct(enc map[Op]rEnc) (t [8][128]Op) {
	for op, e := range enc {
		t[e.funct3][e.funct7] = op
	}
	return t
}

func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode parses a 32-bit RISC-V machine word into an instruction.
func Decode(word uint32) (Inst, error) {
	opc := word & 0x7F
	rd := Reg(word >> 7 & 0x1F)
	f3 := word >> 12 & 0x7
	rs1 := Reg(word >> 15 & 0x1F)
	rs2 := Reg(word >> 20 & 0x1F)
	f7 := word >> 25 & 0x7F
	immI := signExtend(word>>20, 12)

	switch opc {
	case opcLUI, opcAUIPC:
		op := OpLUI
		if opc == opcAUIPC {
			op = OpAUIPC
		}
		return Inst{Op: op, Rd: rd, Imm: signExtend(word>>12, 20)}, nil

	case opcJAL:
		u := word
		imm := (u>>31&1)<<20 | (u>>21&0x3FF)<<1 | (u>>20&1)<<11 | (u >> 12 & 0xFF << 12)
		return Inst{Op: OpJAL, Rd: rd, Imm: signExtend(imm, 21)}, nil

	case opcJALR:
		return Inst{Op: OpJALR, Rd: rd, Rs1: rs1, Imm: immI}, nil

	case opcBRANCH:
		u := word
		imm := (u>>31&1)<<12 | (u>>25&0x3F)<<5 | (u>>8&0xF)<<1 | (u>>7&1)<<11
		if op := branchOps[f3]; op != OpInvalid {
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 13)}, nil
		}

	case opcLOAD:
		if op := loadOps[f3]; op != OpInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}

	case opcSTORE:
		imm := (word>>25&0x7F)<<5 | word>>7&0x1F
		if op := storeOps[f3]; op != OpInvalid {
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 12)}, nil
		}

	case opcOPIMM:
		switch f3 {
		case 1:
			return Inst{Op: OpSLLI, Rd: rd, Rs1: rs1, Imm: int64(word >> 20 & 0x3F)}, nil
		case 5:
			op := OpSRLI
			if f7>>1 == 0x10 {
				op = OpSRAI
			}
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int64(word >> 20 & 0x3F)}, nil
		}
		if op := iArithOps[f3]; op != OpInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}

	case opcOPIMM32:
		switch f3 {
		case 0:
			return Inst{Op: OpADDIW, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 1:
			return Inst{Op: OpSLLIW, Rd: rd, Rs1: rs1, Imm: int64(word >> 20 & 0x1F)}, nil
		case 5:
			op := OpSRLIW
			if f7 == 0x20 {
				op = OpSRAIW
			}
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int64(word >> 20 & 0x1F)}, nil
		}

	case opcOP:
		if op := rTypeOps[f3][f7]; op != OpInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
		}

	case opcOP32:
		if op := r32TypeOps[f3][f7]; op != OpInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
		}

	case opcSYSTEM:
		switch word {
		case 0x00000073:
			return Inst{Op: OpECALL}, nil
		case 0x00100073:
			return Inst{Op: OpEBREAK}, nil
		}

	case opcMISCMEM:
		switch f3 {
		case 0:
			return Inst{Op: OpFENCE}, nil
		case 2:
			if word>>20&0xFFF == 2 {
				return Inst{Op: OpCBOFLUSH, Rs1: rs1}, nil
			}
		}

	case opcCUSTOM0:
		if f3 >= 1 && f3 <= 4 {
			return Inst{Op: OpMARK, Rs1: rs1, Imm: int64(f3)}, nil
		}
	}
	return Inst{}, unsupportedWord(word)
}

// unsupportedWord is Decode's error. It formats its message only when
// asked, so a simulated fetch down a wrong path, which discards the
// error, does not build one.
type unsupportedWord uint32

func (w unsupportedWord) Error() string {
	return fmt.Sprintf("decode: unsupported word %#08x", uint32(w))
}
