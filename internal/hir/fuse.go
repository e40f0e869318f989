package hir

import "fmt"

// fuse.go implements loop fusion (§2), used to merge adjacent kernels so
// one controller/buffer pair feeds a single wider data path.

// CanFuse reports whether two adjacent loops may be fused: identical
// bounds and steps, and no loop-carried dependence through memory. The
// dependence test is conservative: for every array written by the first
// loop and read by the second, all accesses must use identical index
// offsets (element-wise producer/consumer), otherwise fusion is refused.
func CanFuse(a, b *For) error {
	if a.Step != b.Step {
		return fmt.Errorf("hir: fusion: different steps")
	}
	if !sameConstExpr(a.From, b.From) || !sameConstExpr(a.To, b.To) {
		return fmt.Errorf("hir: fusion: different bounds")
	}
	aWrites := arrayAccesses(a.Body, true)
	bReads := arrayAccesses(b.Body, false)
	for arr, wOffs := range aWrites {
		rOffs, ok := bReads[arr]
		if !ok {
			continue
		}
		for off := range rOffs {
			if !wOffs[off] {
				return fmt.Errorf("hir: fusion: %s read at offset %d but written at different offsets", arr.Name, off)
			}
		}
	}
	bWrites := arrayAccesses(b.Body, true)
	aReads := arrayAccesses(a.Body, false)
	for arr := range bWrites {
		if _, ok := aReads[arr]; ok {
			return fmt.Errorf("hir: fusion: %s written by second loop and read by first (anti-dependence)", arr.Name)
		}
	}
	return nil
}

// Fuse merges loop b into loop a (b's body appended, with b's induction
// variable rewritten to a's). CanFuse must hold.
func Fuse(a, b *For) (*For, error) {
	if err := CanFuse(a, b); err != nil {
		return nil, err
	}
	body := CloneStmts(b.Body)
	SubstVar(body, b.Var, &VarRef{Var: a.Var})
	return &For{
		Var:  a.Var,
		From: a.From,
		To:   a.To,
		Step: a.Step,
		Body: append(CloneStmts(a.Body), body...),
	}, nil
}

// FuseAdjacent fuses every fusable adjacent loop pair at the top level
// of f's body and reports how many fusions were performed.
func FuseAdjacent(f *Func) int {
	count := 0
	for {
		fusedOne := false
		for i := 0; i+1 < len(f.Body); i++ {
			la, ok1 := f.Body[i].(*For)
			lb, ok2 := f.Body[i+1].(*For)
			if !ok1 || !ok2 {
				continue
			}
			merged, err := Fuse(la, lb)
			if err != nil {
				continue
			}
			f.Body[i] = merged
			f.Body = append(f.Body[:i+1], f.Body[i+2:]...)
			fusedOne = true
			count++
			break
		}
		if !fusedOne {
			return count
		}
	}
}

func sameConstExpr(a, b Expr) bool {
	ca, ok1 := a.(*Const)
	cb, ok2 := b.(*Const)
	if ok1 && ok2 {
		return ca.Val == cb.Val
	}
	ra, ok1 := a.(*VarRef)
	rb, ok2 := b.(*VarRef)
	if ok1 && ok2 {
		return ra.Var == rb.Var
	}
	return false
}

// arrayAccesses collects, per array, the set of constant offsets used in
// (write? store : load) accesses affine in the loop variable. A nil
// inner map marks an array with a non-affine access, which always
// blocks fusion; that is encoded by an offset set containing a sentinel
// covering everything.
func arrayAccesses(body []Stmt, writes bool) map[*Array]map[int64]bool {
	res := map[*Array]map[int64]bool{}
	add := func(arr *Array, idx []Expr) {
		if res[arr] == nil {
			res[arr] = map[int64]bool{}
		}
		// Offset of the innermost dimension; non-constant terms are
		// summarized by their folded constant part.
		off := int64(0)
		if len(idx) > 0 {
			if _, c, ok := affineParts(idx[len(idx)-1]); ok {
				off = c
			}
		}
		res[arr][off] = true
	}
	addLoads := func(e Expr) {
		for x := range subExprs(e) {
			if ld, ok := x.(*Load); ok {
				add(ld.Arr, ld.Idx)
			}
		}
	}
	var scan func([]Stmt)
	scan = func(list []Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *Store:
				if writes {
					add(s.Arr, s.Idx)
				} else {
					addLoads(s.Src)
				}
			case *Assign:
				if !writes {
					addLoads(s.Src)
				}
			case *If:
				scan(s.Then)
				scan(s.Else)
			case *For:
				scan(s.Body)
			}
		}
	}
	scan(body)
	return res
}

// affineParts decomposes e as scale*iv + offset for some single loop
// variable; it returns (scale, offset, ok). Plain constants return
// (0, c, true).
func affineParts(e Expr) (int64, int64, bool) {
	switch e := e.(type) {
	case *Const:
		return 0, e.Val, true
	case *VarRef:
		return 1, 0, true
	case *Cast:
		return affineParts(e.X)
	case *Bin:
		sx, cx, okx := affineParts(e.X)
		sy, cy, oky := affineParts(e.Y)
		if !okx || !oky {
			return 0, 0, false
		}
		switch e.Op {
		case OpAdd:
			return sx + sy, cx + cy, true
		case OpSub:
			return sx - sy, cx - cy, true
		case OpMul:
			if sx == 0 {
				return cx * sy, cx * cy, true
			}
			if sy == 0 {
				return sx * cy, cx * cy, true
			}
		}
	}
	return 0, 0, false
}
