// Package ssa is the reproduction's Machine-SUIF Static Single
// Assignment library analogue [16]. After Convert runs, "control flow
// graph information is visible and every virtual register is assigned
// only once" (§4.2.1) — the precondition for data-path building, where
// phis become the mux nodes of §4.2.2.
package ssa

import (
	"fmt"
	"maps"
	"slices"

	"roccc/internal/cfg"
	"roccc/internal/dfa"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// Convert rewrites the graph into pruned SSA form: phi instructions are
// inserted at dominance frontiers for registers live at the join, and
// all registers are renamed so each has exactly one definition. Routine
// output ports are updated to the renamed registers.
func Convert(g *cfg.Graph) error {
	rt := g.Routine
	liveIn, _ := dfa.Liveness(g)
	defSites := dfa.DefSites(g)
	df := g.DominanceFrontier()
	idom := g.Dominators()

	// Phase 1: phi placement (pruned SSA).
	phiOrig := map[*vm.Instr]vm.Reg{} // phi -> original register
	// Registers in ascending order: phi order within a block, and with it
	// the renamed register numbers, must not depend on map iteration.
	for _, reg := range slices.Sorted(maps.Keys(defSites)) {
		sites := defSites[reg]
		if len(sites) < 2 {
			continue
		}
		work := append([]dfa.Def{}, sites...)
		seen := map[*cfg.Block]bool{}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[d.Block] {
				if seen[y] || !liveIn[y][reg] {
					continue
				}
				seen[y] = true
				phi := &vm.Instr{
					Op:   vm.PHI,
					Dst:  reg,
					Srcs: make([]vm.Operand, len(y.Preds)),
					Typ:  rt.RegType[reg],
				}
				for i := range phi.Srcs {
					phi.Srcs[i] = vm.R(reg)
				}
				y.Phis = append(y.Phis, phi)
				phiOrig[phi] = reg
				work = append(work, dfa.Def{Block: y, Index: -1})
			}
		}
	}

	// Phase 2: renaming along the dominator tree.
	domChildren := map[*cfg.Block][]*cfg.Block{}
	for _, b := range g.ReversePostOrder() {
		if b == g.Entry() {
			continue
		}
		if p, ok := idom[b]; ok && p != b {
			domChildren[p] = append(domChildren[p], b)
		}
	}

	stacks := map[vm.Reg][]vm.Reg{}
	newName := func(orig vm.Reg) vm.Reg {
		rt.NumRegs++
		nr := vm.Reg(rt.NumRegs)
		rt.RegType[nr] = rt.RegType[orig]
		stacks[orig] = append(stacks[orig], nr)
		return nr
	}
	top := func(orig vm.Reg) vm.Reg {
		st := stacks[orig]
		if len(st) == 0 {
			// Never-defined register (read of an undefined value):
			// keep the original name.
			return orig
		}
		return st[len(st)-1]
	}
	// Inputs are defined at the entry: seed their stacks with
	// themselves so uses keep the port register.
	for _, p := range rt.Inputs {
		stacks[p.Reg] = append(stacks[p.Reg], p.Reg)
	}

	renameOperand := func(o *vm.Operand) {
		if !o.IsImm && o.Reg != 0 {
			o.Reg = top(o.Reg)
		}
	}
	outputRenamed := map[vm.Reg]vm.Reg{}

	var rename func(b *cfg.Block)
	rename = func(b *cfg.Block) {
		var pushed []vm.Reg
		for _, phi := range b.Phis {
			orig := phiOrig[phi]
			phi.Dst = newName(orig)
			pushed = append(pushed, orig)
		}
		for _, in := range b.Instrs {
			for i := range in.Srcs {
				renameOperand(&in.Srcs[i])
			}
			if in.Op.HasDst() {
				orig := in.Dst
				in.Dst = newName(orig)
				pushed = append(pushed, orig)
				if isOutputReg(rt, orig) {
					outputRenamed[orig] = in.Dst
				}
			}
		}
		if b.BranchCond != nil {
			for i := range b.BranchCond.Srcs {
				renameOperand(&b.BranchCond.Srcs[i])
			}
		}
		for _, s := range b.Succs {
			pi := s.PredIndex(b)
			for _, phi := range s.Phis {
				orig := phiOrig[phi]
				phi.Srcs[pi] = vm.R(top(orig))
			}
		}
		for _, c := range domChildren[b] {
			rename(c)
		}
		for _, orig := range pushed {
			stacks[orig] = stacks[orig][:len(stacks[orig])-1]
		}
	}
	rename(g.Entry())

	// Update output ports to the renamed definitions.
	for i := range rt.Outputs {
		if nr, ok := outputRenamed[rt.Outputs[i].Reg]; ok {
			rt.Outputs[i].Reg = nr
		}
	}
	return Check(g)
}

func isOutputReg(rt *vm.Routine, r vm.Reg) bool {
	for _, p := range rt.Outputs {
		if p.Reg == r {
			return true
		}
	}
	return false
}

// Check verifies the single-assignment invariant: every register is
// defined at most once across the graph (inputs count as definitions).
func Check(g *cfg.Graph) error {
	defs := map[vm.Reg]int{}
	for _, p := range g.Routine.Inputs {
		defs[p.Reg]++
	}
	for _, b := range g.Blocks {
		for _, phi := range b.Phis {
			defs[phi.Dst]++
		}
		for _, in := range b.Instrs {
			if in.Op.HasDst() {
				defs[in.Dst]++
			}
		}
	}
	for r, n := range defs {
		if n > 1 {
			return fmt.Errorf("ssa: register %s has %d definitions", r, n)
		}
	}
	return nil
}

// Exec interprets an SSA-form graph: one call is one kernel iteration.
// state carries the feedback latches (LPR reads, SNX stages; staged
// values commit on return). It is used to validate SSA conversion and
// as a reference for the data-path generator.
func Exec(g *cfg.Graph, inputs []int64, state map[*hir.Var]int64) ([]int64, error) {
	rt := g.Routine
	if len(inputs) != len(rt.Inputs) {
		return nil, fmt.Errorf("ssa: exec: %d inputs, routine has %d", len(inputs), len(rt.Inputs))
	}
	regs := map[vm.Reg]int64{}
	for i, p := range rt.Inputs {
		regs[p.Reg] = p.Var.Type.Wrap(inputs[i])
	}
	next := map[*hir.Var]int64{}
	val := func(o vm.Operand) int64 {
		if o.IsImm {
			return o.Imm
		}
		return regs[o.Reg]
	}
	var prev *cfg.Block
	blk := g.Entry()
	steps := 0
	for blk != g.Exit {
		steps++
		if steps > 10000 {
			return nil, fmt.Errorf("ssa: exec: runaway control flow")
		}
		// Phis read values along the incoming edge, all in parallel.
		if len(blk.Phis) > 0 {
			pi := blk.PredIndex(prev)
			if pi < 0 {
				return nil, fmt.Errorf("ssa: exec: block %d entered from non-predecessor", blk.ID)
			}
			vals := make([]int64, len(blk.Phis))
			for i, phi := range blk.Phis {
				vals[i] = phi.Typ.Wrap(val(phi.Srcs[pi]))
			}
			for i, phi := range blk.Phis {
				regs[phi.Dst] = vals[i]
			}
		}
		for _, in := range blk.Instrs {
			switch in.Op {
			case vm.SNX:
				next[in.State] = in.Typ.Wrap(val(in.Srcs[0]))
			case vm.LPR:
				regs[in.Dst] = state[in.State]
			case vm.LUT:
				ix := val(in.Srcs[0])
				if ix < 0 || ix >= int64(in.Rom.Size) {
					return nil, fmt.Errorf("ssa: exec: LUT index %d out of range", ix)
				}
				regs[in.Dst] = in.Rom.Content[ix]
			default:
				v, err := vm.EvalOp(in, val)
				if err != nil {
					return nil, err
				}
				regs[in.Dst] = v
			}
		}
		prev = blk
		switch {
		case blk.BranchCond != nil:
			taken := val(blk.BranchCond.Srcs[0]) != 0
			if blk.BranchCond.Op == vm.BFL {
				taken = !taken
			}
			if taken {
				blk = blk.Succs[0]
			} else {
				blk = blk.Succs[1]
			}
		case len(blk.Succs) > 0:
			blk = blk.Succs[0]
		default:
			return nil, fmt.Errorf("ssa: exec: block %d has no successor", blk.ID)
		}
	}
	for v, nv := range next {
		state[v] = nv
	}
	outs := make([]int64, len(rt.Outputs))
	for i, p := range rt.Outputs {
		outs[i] = regs[p.Reg]
	}
	return outs, nil
}
