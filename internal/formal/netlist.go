// Package formal implements the baseline that Table VII compares
// MicroSampler against: a XENON-style formal constant-time checker. It
// verifies a two-safety property over gate-level netlists — for every
// reachable pair of executions that agree on public inputs but may
// differ in secrets, the observable (timing) outputs must agree — by
// exhaustive product-state exploration. Like the solver-based tools it
// stands in for, its cost grows superlinearly with the design's state
// bits, which is exactly the scalability contrast the paper draws.
package formal

import "fmt"

// op is a gate operation.
type op uint8

const (
	opConst op = iota + 1
	opInput
	opSecret
	opState
	opNot
	opAnd
	opOr
	opXor
	opMux // sel ? a : b, with sel in c
)

// gate is one node of the combinational DAG.
type gate struct {
	op      op
	a, b, c int // operand gate indices (or input/state bit index)
	val     bool
}

// Netlist is a synchronous circuit: state registers, public and secret
// inputs, a combinational gate DAG, next-state functions and observable
// outputs.
type Netlist struct {
	Name       string
	stateBits  int
	publicBits int
	secretBits int
	gates      []gate
	next       []int // per state bit: gate producing its next value
	observable []int // gates an attacker can time/observe
}

// Builder constructs netlists.
type Builder struct {
	n *Netlist
}

// NewBuilder returns a builder for a netlist with the given register and
// input widths.
func NewBuilder(name string, stateBits, publicBits, secretBits int) *Builder {
	n := &Netlist{
		Name:       name,
		stateBits:  stateBits,
		publicBits: publicBits,
		secretBits: secretBits,
		next:       make([]int, stateBits),
	}
	b := &Builder{n: n}
	for i := range n.next {
		n.next[i] = int(b.State(i)) // default: registers hold their value
	}
	return b
}

// Signal is a reference to a gate output.
type Signal int

func (b *Builder) add(g gate) Signal {
	b.n.gates = append(b.n.gates, g)
	return Signal(len(b.n.gates) - 1)
}

// Const returns a constant signal.
func (b *Builder) Const(v bool) Signal { return b.add(gate{op: opConst, val: v}) }

// Input returns the i-th public input bit.
func (b *Builder) Input(i int) Signal { return b.add(gate{op: opInput, a: i}) }

// Secret returns the i-th secret input bit.
func (b *Builder) Secret(i int) Signal { return b.add(gate{op: opSecret, a: i}) }

// State returns the i-th state register's current value.
func (b *Builder) State(i int) Signal { return b.add(gate{op: opState, a: i}) }

// Not returns the negation of s.
func (b *Builder) Not(s Signal) Signal { return b.add(gate{op: opNot, a: int(s)}) }

// And returns x AND y.
func (b *Builder) And(x, y Signal) Signal {
	return b.add(gate{op: opAnd, a: int(x), b: int(y)})
}

// Or returns x OR y.
func (b *Builder) Or(x, y Signal) Signal {
	return b.add(gate{op: opOr, a: int(x), b: int(y)})
}

// Xor returns x XOR y.
func (b *Builder) Xor(x, y Signal) Signal {
	return b.add(gate{op: opXor, a: int(x), b: int(y)})
}

// Mux returns sel ? x : y.
func (b *Builder) Mux(sel, x, y Signal) Signal {
	return b.add(gate{op: opMux, a: int(x), b: int(y), c: int(sel)})
}

// Adder returns the sum bits of x + y (ripple carry, same width).
func (b *Builder) Adder(x, y []Signal) []Signal {
	carry := b.Const(false)
	out := make([]Signal, len(x))
	for i := range x {
		s := b.Xor(x[i], y[i])
		out[i] = b.Xor(s, carry)
		carry = b.Or(b.And(x[i], y[i]), b.And(s, carry))
	}
	return out
}

// SetNext wires the next-state function of register i.
func (b *Builder) SetNext(i int, s Signal) { b.n.next[i] = int(s) }

// Observe marks a signal as attacker-observable.
func (b *Builder) Observe(s Signal) {
	b.n.observable = append(b.n.observable, int(s))
}

// Build finalises the netlist.
func (b *Builder) Build() *Netlist { return b.n }

// StateBits returns the number of state registers: the design-size
// metric of Table I and Table VII.
func (n *Netlist) StateBits() int { return n.stateBits }

// eval computes the next state and observable outputs for one cycle.
// scratch must have len(n.gates) capacity; it is reused across calls.
func (n *Netlist) eval(state, public, secret uint64, scratch []bool) (next, obs uint64) {
	for i := range n.gates {
		g := &n.gates[i]
		var v bool
		switch g.op {
		case opConst:
			v = g.val
		case opInput:
			v = public>>g.a&1 == 1
		case opSecret:
			v = secret>>g.a&1 == 1
		case opState:
			v = state>>g.a&1 == 1
		case opNot:
			v = !scratch[g.a]
		case opAnd:
			v = scratch[g.a] && scratch[g.b]
		case opOr:
			v = scratch[g.a] || scratch[g.b]
		case opXor:
			v = scratch[g.a] != scratch[g.b]
		case opMux:
			if scratch[g.c] {
				v = scratch[g.a]
			} else {
				v = scratch[g.b]
			}
		}
		scratch[i] = v
	}
	for i, gi := range n.next {
		if scratch[gi] {
			next |= 1 << i
		}
	}
	for i, gi := range n.observable {
		if scratch[gi] {
			obs |= 1 << i
		}
	}
	return next, obs
}

func (n *Netlist) validate() error {
	if n.stateBits > 62 || n.publicBits > 16 || n.secretBits > 16 {
		return fmt.Errorf("formal: %s exceeds explorable widths", n.Name)
	}
	return nil
}
