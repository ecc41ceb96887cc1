package decomp

import "fmt"

// The reference interpreter: netState and Netlist.Run evaluate the parsed
// assignment list against string-keyed maps every cycle. No module runs it:
// NewModule compiles the netlist to a slot-indexed program (compile.go), and
// the interpreter is the specification that FuzzCompiledNetlist and the
// decomp tests check the compiler against.

// netState is the mutable evaluation state of the reference interpreter.
type netState struct {
	nl       *Netlist
	regVals  map[string]uint64
	wires    map[string]uint64
	nextReg  map[string]uint64
	regNames map[string]bool
}

func newNetState(nl *Netlist) *netState {
	s := &netState{
		nl:       nl,
		regVals:  make(map[string]uint64, len(nl.regs)),
		wires:    make(map[string]uint64),
		nextReg:  make(map[string]uint64, len(nl.regs)),
		regNames: make(map[string]bool, len(nl.regs)),
	}
	for _, r := range nl.regs {
		s.regNames[r.name] = true
	}
	s.reset()
	return s
}

// reset restores every register to its declared init value.
func (s *netState) reset() {
	for _, r := range s.nl.regs {
		s.regVals[r.name] = r.init
	}
}

func (s *netState) isReg(name string) bool { return s.regNames[name] }

func (s *netState) value(o operand, input uint64) (uint64, error) {
	if o.isLit {
		return o.literal, nil
	}
	if o.name == "Input" {
		return input, nil
	}
	if s.isReg(o.name) {
		return s.regVals[o.name], nil
	}
	v, ok := s.wires[o.name]
	if !ok {
		return 0, fmt.Errorf("decomp: wire %q read before assignment", o.name)
	}
	return v, nil
}

// step evaluates one cycle of the netlist against input, returning the
// output value and whether it is valid this cycle.
func (s *netState) step(input uint64) (out uint64, valid bool, err error) {
	clear(s.wires)
	nextReg := s.nextReg
	clear(nextReg)
	for _, a := range s.nl.assigns {
		var vals [3]uint64
		for i, arg := range a.args {
			vals[i], err = s.value(arg, input)
			if err != nil {
				return 0, false, err
			}
		}
		var v uint64
		switch a.op {
		case opNone:
			v = vals[0]
		case opSHR:
			v = vals[0] >> (vals[1] & 63)
		case opSHL:
			v = vals[0] << (vals[1] & 63)
		case opAND:
			v = vals[0] & vals[1]
		case opOR:
			v = vals[0] | vals[1]
		case opXOR:
			v = vals[0] ^ vals[1]
		case opADD:
			v = vals[0] + vals[1]
		case opSUB:
			v = vals[0] - vals[1]
		case opMUX:
			if vals[0] != 0 {
				v = vals[1]
			} else {
				v = vals[2]
			}
		}
		if s.isReg(a.dest) {
			nextReg[a.dest] = v
		} else {
			s.wires[a.dest] = v
		}
	}
	// Latch registers: reset wins over the assigned next value.
	for _, r := range s.nl.regs {
		resetVal, ok := s.wires[r.reset]
		if ok && resetVal != 0 {
			s.regVals[r.name] = r.init
			continue
		}
		if nv, ok := nextReg[r.name]; ok {
			s.regVals[r.name] = nv
		}
	}
	out = s.wires["Output"]
	valid = s.wires["Output.valid"] != 0
	return out, valid, nil
}

// Run feeds each token through the netlist in order, collecting the values
// emitted on Output while Output.valid is high. It returns at most max
// values (max < 0 means unlimited) along with the number of cycles
// consumed.
func (nl *Netlist) Run(tokens []uint64, max int) (values []uint64, cycles int, err error) {
	s := newNetState(nl)
	for _, tok := range tokens {
		cycles++
		out, valid, err := s.step(tok)
		if err != nil {
			return nil, cycles, err
		}
		if valid {
			values = append(values, out)
			if max >= 0 && len(values) >= max {
				break
			}
		}
	}
	return values, cycles, nil
}
