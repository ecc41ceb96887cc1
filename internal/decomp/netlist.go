// Package decomp models BOSS's programmable decompression module
// (Section IV-C/IV-D): a four-stage datapath where stage 1 extracts payload
// tokens from the serialized bitstream, stage 2 is a programmable netlist of
// primitive units (shift/mask/add/mux wired by a configuration file in the
// style of the paper's Figure 8), stage 3 patches exception values, and
// stage 4 applies delta decoding. The module decodes every scheme in
// internal/compress bit-exactly, and counts datapath cycles for the timing
// model.
package decomp

import (
	"fmt"
	"strconv"
	"strings"
)

// opKind is a stage-2 primitive unit.
type opKind int

const (
	opNone opKind = iota // plain signal copy
	opSHR
	opSHL
	opAND
	opOR
	opXOR
	opADD
	opSUB
	opMUX
)

var opNames = map[string]opKind{
	"SHR": opSHR, "SHL": opSHL, "AND": opAND, "OR": opOR,
	"XOR": opXOR, "ADD": opADD, "SUB": opSUB, "MUX": opMUX,
}

// operand is a reference to a signal, the Input port, a register, or a
// literal.
type operand struct {
	literal uint64
	name    string // empty for literals; "Input" for the stage input port
	isLit   bool
}

// assignment is one `dest := OP(a, b)` statement.
type assignment struct {
	dest string
	op   opKind
	args []operand
}

// register is declared with RegInit(name, init, resetSignal).
type register struct {
	name  string
	init  uint64
	reset string // signal that, when nonzero, resets the register
}

// Netlist is a parsed stage-2 program: an ordered list of combinational
// assignments plus register declarations. The special destinations "Output"
// and "Output.valid" drive the stage's output port, and assigning to a
// register name sets its next value.
type Netlist struct {
	regs    []register
	assigns []assignment
}

// --- netlist text parsing ---

// parseOperand parses a literal (decimal or 0x hex) or signal name.
func parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return operand{}, fmt.Errorf("decomp: empty operand")
	}
	if c := s[0]; c >= '0' && c <= '9' {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return operand{}, fmt.Errorf("decomp: bad literal %q: %w", s, err)
		}
		return operand{isLit: true, literal: v}, nil
	}
	return operand{name: s}, nil
}

// parseAssignment parses `dest := expr` where expr is `OP(a, b[, c])`, a
// signal name, or a literal.
func parseAssignment(line string) (assignment, error) {
	parts := strings.SplitN(line, ":=", 2)
	if len(parts) != 2 {
		return assignment{}, fmt.Errorf("decomp: expected ':=' in %q", line)
	}
	dest := strings.TrimSpace(parts[0])
	expr := strings.TrimSpace(parts[1])
	if dest == "" {
		return assignment{}, fmt.Errorf("decomp: empty destination in %q", line)
	}
	if open := strings.IndexByte(expr, '('); open >= 0 {
		opName := strings.TrimSpace(expr[:open])
		op, ok := opNames[opName]
		if !ok {
			return assignment{}, fmt.Errorf("decomp: unknown primitive %q", opName)
		}
		if !strings.HasSuffix(expr, ")") {
			return assignment{}, fmt.Errorf("decomp: missing ')' in %q", line)
		}
		argText := expr[open+1 : len(expr)-1]
		rawArgs := strings.Split(argText, ",")
		wantArgs := 2
		if op == opMUX {
			wantArgs = 3
		}
		if len(rawArgs) != wantArgs {
			return assignment{}, fmt.Errorf("decomp: %s takes %d args, got %d in %q", opName, wantArgs, len(rawArgs), line)
		}
		a := assignment{dest: dest, op: op}
		for _, ra := range rawArgs {
			arg, err := parseOperand(ra)
			if err != nil {
				return assignment{}, err
			}
			a.args = append(a.args, arg)
		}
		return a, nil
	}
	arg, err := parseOperand(expr)
	if err != nil {
		return assignment{}, err
	}
	return assignment{dest: dest, op: opNone, args: []operand{arg}}, nil
}

// parseRegInit parses `RegInit( Name, init, resetSignal )`.
func parseRegInit(line string) (register, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(line), ")") {
		return register{}, fmt.Errorf("decomp: malformed RegInit %q", line)
	}
	inner := strings.TrimSpace(line)
	inner = inner[open+1 : len(inner)-1]
	parts := strings.Split(inner, ",")
	if len(parts) != 3 {
		return register{}, fmt.Errorf("decomp: RegInit takes 3 args in %q", line)
	}
	init, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 0, 64)
	if err != nil {
		return register{}, fmt.Errorf("decomp: bad RegInit init in %q: %w", line, err)
	}
	return register{
		name:  strings.TrimSpace(parts[0]),
		init:  init,
		reset: strings.TrimSpace(parts[2]),
	}, nil
}
