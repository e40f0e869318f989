// Package dfa is the reproduction's Machine-SUIF bit-vector
// data-flow-analysis library analogue [15]: liveness and reaching
// definitions over vm virtual registers, plus def-use summaries. SSA
// conversion and pipe-node insertion (live-through variables around
// alternative branches, §4.2.2) are built on it.
package dfa

import (
	"roccc/internal/cfg"
	"roccc/internal/vm"
)

// RegSet is a set of virtual registers.
type RegSet map[vm.Reg]bool

// Clone copies the set.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	for r := range s {
		c[r] = true
	}
	return c
}

// Equal reports set equality.
func (s RegSet) Equal(o RegSet) bool {
	if len(s) != len(o) {
		return false
	}
	for r := range s {
		if !o[r] {
			return false
		}
	}
	return true
}

// Add inserts r.
func (s RegSet) Add(r vm.Reg) { s[r] = true }

// Union adds all of o into s and reports whether s changed.
func (s RegSet) Union(o RegSet) bool {
	changed := false
	for r := range o {
		if !s[r] {
			s[r] = true
			changed = true
		}
	}
	return changed
}

// DefsUses returns the registers defined and used by one block,
// including the branch condition use.
func DefsUses(b *cfg.Block) (defs, uses RegSet) {
	defs, uses = RegSet{}, RegSet{}
	for _, in := range b.Instrs {
		for r := range in.Uses() {
			if !defs[r] {
				uses[r] = true
			}
		}
		if in.Op.HasDst() {
			defs[in.Dst] = true
		}
	}
	if b.BranchCond != nil {
		for r := range b.BranchCond.Uses() {
			if !defs[r] {
				uses[r] = true
			}
		}
	}
	return defs, uses
}

// Liveness computes per-block live-in and live-out register sets with
// the standard backward bit-vector fixpoint. Routine outputs are live at
// the exit block.
func Liveness(g *cfg.Graph) (liveIn, liveOut map[*cfg.Block]RegSet) {
	liveIn = map[*cfg.Block]RegSet{}
	liveOut = map[*cfg.Block]RegSet{}
	blocks := append([]*cfg.Block{}, g.Blocks...)
	blocks = append(blocks, g.Exit)
	for _, b := range blocks {
		liveIn[b] = RegSet{}
		liveOut[b] = RegSet{}
	}
	for _, p := range g.Routine.Outputs {
		liveIn[g.Exit].Add(p.Reg)
	}
	// Block summaries do not change while the fixpoint iterates.
	defs, uses := make([]RegSet, len(blocks)), make([]RegSet, len(blocks))
	for i, b := range blocks {
		defs[i], uses[i] = DefsUses(b)
	}
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			if b == g.Exit {
				continue // live-in at the exit is the fixed output seed
			}
			out := RegSet{}
			for _, s := range b.Succs {
				out.Union(liveIn[s])
			}
			in := uses[i].Clone()
			for r := range out {
				if !defs[i][r] {
					in.Add(r)
				}
			}
			if !out.Equal(liveOut[b]) || !in.Equal(liveIn[b]) {
				changed = true
				liveOut[b] = out
				liveIn[b] = in
			}
		}
	}
	return liveIn, liveOut
}

// Def is a definition site: block and instruction index within it.
type Def struct {
	Block *cfg.Block
	Index int
}

// DefSites returns, per register, every definition site in the graph.
// Routine inputs are treated as defined in the entry block at index -1.
func DefSites(g *cfg.Graph) map[vm.Reg][]Def {
	sites := map[vm.Reg][]Def{}
	for _, p := range g.Routine.Inputs {
		sites[p.Reg] = append(sites[p.Reg], Def{Block: g.Entry(), Index: -1})
	}
	for _, b := range g.Blocks {
		for i, in := range b.Instrs {
			if in.Op.HasDst() {
				sites[in.Dst] = append(sites[in.Dst], Def{Block: b, Index: i})
			}
		}
	}
	return sites
}

// UseCount returns, per register, the number of reading occurrences.
func UseCount(g *cfg.Graph) map[vm.Reg]int {
	counts := map[vm.Reg]int{}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for r := range in.Uses() {
				counts[r]++
			}
		}
		if b.BranchCond != nil {
			for r := range b.BranchCond.Uses() {
				counts[r]++
			}
		}
	}
	for _, p := range g.Routine.Outputs {
		counts[p.Reg]++
	}
	return counts
}
