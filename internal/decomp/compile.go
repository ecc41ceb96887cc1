package decomp

import (
	"fmt"
	"slices"
)

// This file compiles a stage-2 netlist into a slot-indexed program once at
// module-configuration time. The reference interpreter (interp_test.go,
// test-only) evaluates the assignment list with string-keyed maps — two map
// clears plus one lookup per operand per assignment per cycle, which for the
// byte-serial VariableByte program means a full map-interpreter pass per
// payload byte.
// The compiled form resolves every signal name to an integer slot up front,
// validates wire-use-before-assignment once instead of every cycle, and
// evaluates a cycle as a linear pass over a flat op list. Compilation
// changes wall-clock time only: values, cycle counts, and errors are
// bit-identical to Netlist.Run (FuzzCompiledNetlist pins this), so every
// simulated-time figure is unchanged.

// srcKind says where a compiled operand loads from.
type srcKind uint8

const (
	srcLit   srcKind = iota // immediate literal
	srcInput                // the stage input port
	srcReg                  // register slot (previous cycle's value)
	srcWire                 // wire slot (written earlier this cycle)
)

// src is a slot-resolved operand: no names, no map lookups.
type src struct {
	kind srcKind
	slot int32
	lit  uint64
}

// compiledOp is one lowered `dest := OP(a, b[, c])` assignment.
type compiledOp struct {
	op      opKind
	a, b, c src
	dst     int32
	dstReg  bool // dst indexes nextRegs rather than wires
}

// latchStep latches one register declaration at end of cycle. There is one
// step per RegInit in declaration order, mirroring the interpreter's latch
// loop exactly (duplicate declarations of one name each latch in turn).
type latchStep struct {
	slot      int32
	resetSlot int32 // wire slot of the reset signal, -1 when never driven
	init      uint64
	hasNext   bool // some assignment drives this register
}

// program is a Netlist lowered to slot-indexed form.
type program struct {
	ops   []compiledOp
	latch []latchStep

	nRegs  int
	nWires int
	// regInit[slot] is the power-on value. When one name is declared twice
	// the last declaration wins, as in the interpreter's reset loop.
	regInit []uint64

	outSlot   int32 // wire slot of "Output", -1 when never driven as a wire
	validSlot int32 // wire slot of "Output.valid", -1 when never driven

	// staticErr records a wire-read-before-assignment found at compile
	// time. The assignment list is cycle-invariant, so the interpreter
	// raises this on whichever cycle runs first; the compiled runner
	// reproduces it on cycle 1 with the identical message.
	staticErr error
}

// compile lowers a netlist. It never rejects a program: statically invalid
// ones compile to a program that reproduces the interpreter's first-cycle
// error, keeping NewModule infallible like the interpreter path.
func compile(nl *Netlist) *program {
	p := &program{outSlot: -1, validSlot: -1}

	// Register slots: declarations of the same name share one slot.
	regSlot := make(map[string]int32, len(nl.regs))
	for _, r := range nl.regs {
		if _, ok := regSlot[r.name]; !ok {
			regSlot[r.name] = int32(len(regSlot))
		}
	}
	p.nRegs = len(regSlot)
	p.regInit = make([]uint64, p.nRegs)
	for _, r := range nl.regs {
		p.regInit[regSlot[r.name]] = r.init
	}

	// Wire slots: one per distinct non-register destination.
	wireSlot := make(map[string]int32)
	regDriven := make(map[string]bool)
	for _, a := range nl.assigns {
		if _, isReg := regSlot[a.dest]; isReg {
			regDriven[a.dest] = true
			continue
		}
		if _, ok := wireSlot[a.dest]; !ok {
			wireSlot[a.dest] = int32(len(wireSlot))
		}
	}
	p.nWires = len(wireSlot)

	// Lower assignments in program order, tracking which wires are already
	// driven so reads of not-yet-assigned wires surface now, not per cycle.
	assigned := make(map[string]bool, len(wireSlot))
	for _, a := range nl.assigns {
		op := compiledOp{op: a.op}
		for i, arg := range a.args {
			s, err := resolveSrc(arg, regSlot, wireSlot, assigned)
			if err != nil {
				p.staticErr = err
				return p
			}
			switch i {
			case 0:
				op.a = s
			case 1:
				op.b = s
			case 2:
				op.c = s
			}
		}
		if slot, isReg := regSlot[a.dest]; isReg {
			op.dst, op.dstReg = slot, true
		} else {
			op.dst = wireSlot[a.dest]
			assigned[a.dest] = true
		}
		p.ops = append(p.ops, op)
	}

	// End-of-cycle reads resolve statically: a wire is present in the
	// interpreter's map at latch time iff it is some assignment's
	// destination, because every assignment executes every cycle.
	if s, ok := wireSlot["Output"]; ok {
		p.outSlot = s
	}
	if s, ok := wireSlot["Output.valid"]; ok {
		p.validSlot = s
	}
	for _, r := range nl.regs {
		l := latchStep{
			slot:      regSlot[r.name],
			resetSlot: -1,
			init:      r.init,
			hasNext:   regDriven[r.name],
		}
		if s, ok := wireSlot[r.reset]; ok {
			l.resetSlot = s
		}
		p.latch = append(p.latch, l)
	}
	return p
}

// isIdentity reports whether the program is statically a passthrough: every
// cycle emits its input unchanged with valid high, and no cycle can fail.
// The test is deliberately narrow — no register, and the value step reads
// from Output (the last write to that wire) is a plain copy of Input while
// the one it reads from Output.valid is a non-zero literal. Any op between
// Input and Output, even one that happens to compute the identity, keeps
// the program on the simulated path.
func (p *program) isIdentity() bool {
	if p.staticErr != nil || p.nRegs != 0 || p.outSlot < 0 || p.validSlot < 0 {
		return false
	}
	var out, valid *compiledOp
	for i := range p.ops {
		switch o := &p.ops[i]; o.dst {
		case p.outSlot:
			out = o
		case p.validSlot:
			valid = o
		}
	}
	return out.op == opNone && out.a.kind == srcInput &&
		valid.op == opNone && valid.a.kind == srcLit && valid.a.lit != 0
}

// equal reports whether p is the circuit q is: the same ops over the same
// slots, the same latches and power-on values, the same output ports. Names
// are gone after compilation, so renaming a wire changes nothing here. q
// must have compiled without a static error.
func (p *program) equal(q *program) bool {
	return p.staticErr == nil && p.nRegs == q.nRegs && p.nWires == q.nWires &&
		p.outSlot == q.outSlot && p.validSlot == q.validSlot &&
		slices.Equal(p.ops, q.ops) && slices.Equal(p.latch, q.latch) &&
		slices.Equal(p.regInit, q.regInit)
}

// resolveSrc maps an operand to its slot, in the interpreter's resolution
// order: literal, the Input port, registers, then wires driven earlier in
// the cycle.
func resolveSrc(o operand, regSlot, wireSlot map[string]int32, assigned map[string]bool) (src, error) {
	if o.isLit {
		return src{kind: srcLit, lit: o.literal}, nil
	}
	if o.name == "Input" {
		return src{kind: srcInput}, nil
	}
	if slot, ok := regSlot[o.name]; ok {
		return src{kind: srcReg, slot: slot}, nil
	}
	if assigned[o.name] {
		return src{kind: srcWire, slot: wireSlot[o.name]}, nil
	}
	return src{}, fmt.Errorf("decomp: wire %q read before assignment", o.name)
}

// progState is the mutable state of a compiled program: flat slot arrays,
// reusable across blocks. Wires are never cleared between cycles — compile
// proved every wire read follows a same-cycle write, so stale values are
// unobservable.
type progState struct {
	regs     []uint64
	nextRegs []uint64
	wires    []uint64
}

func newProgState(p *program) *progState {
	return &progState{
		regs:     make([]uint64, p.nRegs),
		nextRegs: make([]uint64, p.nRegs),
		wires:    make([]uint64, p.nWires),
	}
}

// reset restores power-on register state.
func (s *progState) reset(p *program) {
	copy(s.regs, p.regInit)
}

func (s *progState) load(o src, input uint64) uint64 {
	switch o.kind {
	case srcLit:
		return o.lit
	case srcInput:
		return input
	case srcReg:
		return s.regs[o.slot]
	default:
		return s.wires[o.slot]
	}
}

// step evaluates one cycle: a linear pass over the op list, then the
// register latch (reset wins over the assigned next value), then the
// statically resolved output-port reads.
//
//boss:hotpath one call per netlist cycle — per payload byte for VariableByte.
func (p *program) step(s *progState, input uint64) (out uint64, valid bool) {
	for i := range p.ops {
		o := &p.ops[i]
		a := s.load(o.a, input)
		b := s.load(o.b, input)
		var v uint64
		switch o.op {
		case opNone:
			v = a
		case opSHR:
			v = a >> (b & 63)
		case opSHL:
			v = a << (b & 63)
		case opAND:
			v = a & b
		case opOR:
			v = a | b
		case opXOR:
			v = a ^ b
		case opADD:
			v = a + b
		case opSUB:
			v = a - b
		case opMUX:
			if a != 0 {
				v = b
			} else {
				v = s.load(o.c, input)
			}
		}
		if o.dstReg {
			s.nextRegs[o.dst] = v
		} else {
			s.wires[o.dst] = v
		}
	}
	for _, l := range p.latch {
		if l.resetSlot >= 0 && s.wires[l.resetSlot] != 0 {
			s.regs[l.slot] = l.init
			continue
		}
		if l.hasNext {
			s.regs[l.slot] = s.nextRegs[l.slot]
		}
	}
	if p.outSlot >= 0 {
		out = s.wires[p.outSlot]
	}
	valid = p.validSlot >= 0 && s.wires[p.validSlot] != 0
	return out, valid
}

// run is the compiled equivalent of the test-only Netlist.Run: identical
// values, cycle counts, and errors, with no allocation beyond dst growth.
//
//boss:hotpath
func (p *program) run(s *progState, dst []uint64, tokens []uint64, max int) (values []uint64, cycles int, err error) {
	s.reset(p)
	values = dst
	for _, tok := range tokens {
		cycles++
		if p.staticErr != nil {
			return nil, cycles, p.staticErr
		}
		out, valid := p.step(s, tok)
		if valid {
			values = append(values, out)
			if max >= 0 && len(values) >= max {
				break
			}
		}
	}
	return values, cycles, nil
}

// runBytes is run with a byte-stream input: one token per payload byte,
// fed incrementally so evaluation stops at the byte completing value max.
// The VariableByte fast path never materializes a token slice and never
// touches payload bytes past the values it needs.
//
//boss:hotpath
func (p *program) runBytes(s *progState, dst []uint64, payload []byte, max int) (values []uint64, cycles int, err error) {
	s.reset(p)
	values = dst
	for _, tok := range payload {
		cycles++
		if p.staticErr != nil {
			return nil, cycles, p.staticErr
		}
		out, valid := p.step(s, uint64(tok))
		if valid {
			values = append(values, out)
			if max >= 0 && len(values) >= max {
				break
			}
		}
	}
	return values, cycles, nil
}
