package hir

import (
	"sort"

	"roccc/internal/cc"
)

// cse.go implements local value numbering over linearized regions —
// ROCCC's common-subexpression elimination. Combined with Linearize and
// DCE it removes redundant operators from the data path.

// CSE performs local value numbering on every straight-line region of f.
// The function should be linearized first (CSE calls Linearize itself
// for convenience). Returns the number of replaced right-hand sides.
func CSE(f *Func) int {
	Linearize(f)
	n := 0
	cseRegion(f.Body, &n)
	return n
}

type vnState struct {
	varVN  map[*Var]int
	exprVN map[int]int  // interned RHS key number -> value number
	repOf  map[int]*Var // value number -> variable currently holding it
	next   int
	// ids hash-conses expression keys: equal keys get one number, so a
	// parent's key holds its operands' numbers, not their keys.
	ids map[exprKey]int
}

// newVNState sizes the tables for a region of n statements: a
// linearized right-hand side is one operator over leaf operands.
func newVNState(n int) *vnState {
	return &vnState{
		varVN: make(map[*Var]int, n), exprVN: make(map[int]int, n),
		repOf: make(map[int]*Var, 2*n), ids: make(map[exprKey]int, 2*n),
	}
}

// exprKind tags the expression form an exprKey describes.
type exprKind uint8

const (
	keyConst exprKind = iota + 1
	keyVar
	keyLoadPrev
	keyLut
	keyUn
	keyBin
	keySel
	keyCast
)

// exprKey is the canonical value-numbering key of a linearized
// expression. Operands appear as interned key numbers (a, b, c), a
// variable read as its current value number (a), a constant as val;
// commutative operands are ordered by number.
type exprKey struct {
	kind    exprKind
	op      Op
	a, b, c int
	val     int64
	typ     cc.IntType
	v       *Var   // LoadPrev's feedback variable
	rom     string // LutRef's table
}

func (st *vnState) fresh() int {
	st.next++
	return st.next
}

// vnOfVar returns the current value number of v, creating one if the
// variable is seen for the first time (an input value).
func (st *vnState) vnOfVar(v *Var) int {
	if vn, ok := st.varVN[v]; ok {
		return vn
	}
	vn := st.fresh()
	st.varVN[v] = vn
	st.repOf[vn] = v
	return vn
}

// valid reports whether rep still holds value number vn.
func (st *vnState) valid(rep *Var, vn int) bool {
	return rep != nil && st.varVN[rep] == vn
}

var commutative = map[Op]bool{
	OpAdd: true, OpMul: true, OpAnd: true, OpOr: true, OpXor: true,
	OpEq: true, OpNe: true, OpLAnd: true, OpLOr: true,
}

// keyOf builds the canonical value-numbering key for a linearized
// expression; ok is false when the expression must not be numbered
// (memory loads and anything unrecognized).
func (st *vnState) keyOf(e Expr) (exprKey, bool) {
	switch e := e.(type) {
	case *Const:
		return exprKey{kind: keyConst, val: e.Val, typ: e.Typ}, true
	case *VarRef:
		return exprKey{kind: keyVar, a: st.vnOfVar(e.Var)}, true
	case *LoadPrev:
		// LPR reads the feedback latch, constant within one iteration.
		return exprKey{kind: keyLoadPrev, v: e.Var}, true
	case *LutRef:
		x, ok := st.idOf(e.Idx)
		return exprKey{kind: keyLut, a: x, rom: e.Rom.Name}, ok
	case *Un:
		x, ok := st.idOf(e.X)
		return exprKey{kind: keyUn, op: e.Op, a: x, typ: e.Typ}, ok
	case *Bin:
		x, okx := st.idOf(e.X)
		y, oky := st.idOf(e.Y)
		if commutative[e.Op] && y < x {
			x, y = y, x
		}
		return exprKey{kind: keyBin, op: e.Op, a: x, b: y, typ: e.Typ}, okx && oky
	case *Sel:
		c, okc := st.idOf(e.Cond)
		t, okt := st.idOf(e.Then)
		f, okf := st.idOf(e.Else)
		return exprKey{kind: keySel, a: c, b: t, c: f, typ: e.Typ}, okc && okt && okf
	case *Cast:
		x, ok := st.idOf(e.X)
		return exprKey{kind: keyCast, a: x, typ: e.Typ}, ok
	default:
		return exprKey{}, false
	}
}

// idOf interns e's key and returns its number.
func (st *vnState) idOf(e Expr) (int, bool) {
	k, ok := st.keyOf(e)
	if !ok {
		return 0, false
	}
	id, seen := st.ids[k]
	if !seen {
		id = len(st.ids) + 1
		st.ids[k] = id
	}
	return id, true
}

// cseRegion numbers one straight-line region in place.
func cseRegion(list []Stmt, replaced *int) {
	st := newVNState(len(list))
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			key, ok := st.idOf(s.Src)
			if !ok {
				// Unnumberable RHS (memory load): dst gets a fresh value.
				st.varVN[s.Dst] = st.fresh()
				st.repOf[st.varVN[s.Dst]] = s.Dst
				continue
			}
			if vn, seen := st.exprVN[key]; seen {
				if rep := st.repOf[vn]; st.valid(rep, vn) && rep != s.Dst {
					if _, already := s.Src.(*VarRef); !already {
						s.Src = &VarRef{Var: rep}
						*replaced++
					}
				}
				st.varVN[s.Dst] = vn
				continue
			}
			vn := st.fresh()
			st.exprVN[key] = vn
			st.varVN[s.Dst] = vn
			st.repOf[vn] = s.Dst
		case *StoreNext:
			// The feedback write changes the variable's software value.
			vn := st.fresh()
			st.varVN[s.Var] = vn
			st.repOf[vn] = s.Var
		case *If:
			// Branch bodies are separate regions; state after the If is
			// conservatively reset for variables assigned inside.
			cseRegion(s.Then, replaced)
			cseRegion(s.Else, replaced)
			killAssigned(st, s.Then)
			killAssigned(st, s.Else)
		case *For:
			cseRegion(s.Body, replaced)
			killAssigned(st, s.Body)
			st.varVN[s.Var] = st.fresh()
		}
	}
}

func killAssigned(st *vnState, body []Stmt) {
	assigned := AssignedVars(body)
	vars := make([]*Var, 0, len(assigned))
	for v := range assigned {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	for _, v := range vars {
		vn := st.fresh()
		st.varVN[v] = vn
		st.repOf[vn] = v
	}
}

// CopyProp replaces reads of variables whose defining assignment in the
// same region is a plain copy (t = v) or constant (t = c), enabling DCE
// to drop the copies. Returns the number of replaced uses.
func CopyProp(f *Func) int {
	n := 0
	copyPropRegion(f.Body, &n)
	return n
}

// copyPropRegion propagates copies through one region in place.
func copyPropRegion(list []Stmt, n *int) {
	// binding: var -> replacement leaf expression currently valid.
	binding := map[*Var]Expr{}
	kill := func(v *Var) {
		delete(binding, v)
		// Any binding whose value reads v is stale.
		for dst, repl := range binding {
			if ref, ok := repl.(*VarRef); ok && ref.Var == v {
				delete(binding, dst)
			}
		}
	}
	// Bindings are leaves (a VarRef or a Const), which no pass mutates,
	// so every substituted read shares the binding's node.
	substitute := func(e Expr) Expr {
		return visitExpr(e, func(x Expr) Expr {
			if ref, ok := x.(*VarRef); ok {
				if repl, ok2 := binding[ref.Var]; ok2 {
					*n++
					return repl
				}
			}
			return x
		})
	}
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			s.Src = substitute(s.Src)
			kill(s.Dst)
			switch src := s.Src.(type) {
			case *VarRef:
				if src.Var != s.Dst && s.Dst.Type == src.Var.Type {
					binding[s.Dst] = src
				}
			case *Const:
				if src.Typ == s.Dst.Type {
					binding[s.Dst] = src
				}
			}
		case *StoreNext:
			s.Src = substitute(s.Src)
			kill(s.Var) // the feedback write changes the software value
		case *Store:
			for i := range s.Idx {
				s.Idx[i] = substitute(s.Idx[i])
			}
			s.Src = substitute(s.Src)
		case *If:
			s.Cond = substitute(s.Cond)
			copyPropRegion(s.Then, n)
			copyPropRegion(s.Else, n)
			for v := range AssignedVars(s.Then) {
				kill(v)
			}
			for v := range AssignedVars(s.Else) {
				kill(v)
			}
		case *For:
			copyPropRegion(s.Body, n)
			for v := range AssignedVars(s.Body) {
				kill(v)
			}
			kill(s.Var)
		}
	}
}
