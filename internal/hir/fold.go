package hir

import "roccc/internal/cc"

// fold.go implements constant folding and algebraic simplification, one
// of ROCCC's "conventional optimizations" (§2).

// Fold folds constants and simplifies algebra across the whole function,
// then prunes statically-dead branches and empty loops.
func Fold(f *Func) {
	f.Body = foldStmts(f.Body)
}

func foldStmts(list []Stmt) []Stmt {
	out := make([]Stmt, 0, len(list))
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			s.Src = FoldExpr(s.Src)
			out = append(out, s)
		case *StoreNext:
			s.Src = FoldExpr(s.Src)
			out = append(out, s)
		case *Store:
			for i := range s.Idx {
				s.Idx[i] = FoldExpr(s.Idx[i])
			}
			s.Src = FoldExpr(s.Src)
			out = append(out, s)
		case *If:
			s.Cond = FoldExpr(s.Cond)
			s.Then = foldStmts(s.Then)
			s.Else = foldStmts(s.Else)
			if c, ok := s.Cond.(*Const); ok {
				if c.Val != 0 {
					out = append(out, s.Then...)
				} else {
					out = append(out, s.Else...)
				}
				continue
			}
			if len(s.Then) == 0 && len(s.Else) == 0 {
				continue
			}
			out = append(out, s)
		case *For:
			s.From = FoldExpr(s.From)
			s.To = FoldExpr(s.To)
			s.Body = foldStmts(s.Body)
			if from, ok := s.From.(*Const); ok {
				if to, ok2 := s.To.(*Const); ok2 && from.Val >= to.Val {
					continue // zero-trip loop
				}
			}
			if len(s.Body) == 0 {
				continue
			}
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}

// FoldExpr folds the expression tree bottom-up.
func FoldExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Un:
		e.X = FoldExpr(e.X)
		if x, ok := e.X.(*Const); ok {
			switch e.Op {
			case OpNeg:
				return &Const{Val: e.Typ.Wrap(-x.Val), Typ: e.Typ}
			case OpNot:
				return &Const{Val: e.Typ.Wrap(^x.Val), Typ: e.Typ}
			case OpLNot:
				return &Const{Val: b2i(x.Val == 0), Typ: e.Typ}
			}
		}
		return e
	case *Bin:
		e.X = FoldExpr(e.X)
		e.Y = FoldExpr(e.Y)
		x, xc := e.X.(*Const)
		y, yc := e.Y.(*Const)
		if xc && yc {
			if v, err := evalBin(e, x.Val, y.Val); err == nil {
				return &Const{Val: v, Typ: e.Typ}
			}
			return e
		}
		return simplifyBin(e, x, xc, y, yc)
	case *Sel:
		e.Cond = FoldExpr(e.Cond)
		e.Then = FoldExpr(e.Then)
		e.Else = FoldExpr(e.Else)
		if c, ok := e.Cond.(*Const); ok {
			if c.Val != 0 {
				return coerceConst(e.Then, e.Typ)
			}
			return coerceConst(e.Else, e.Typ)
		}
		return e
	case *Cast:
		e.X = FoldExpr(e.X)
		if x, ok := e.X.(*Const); ok {
			return &Const{Val: e.Typ.Wrap(x.Val), Typ: e.Typ}
		}
		// Collapse nested casts when the outer one dominates.
		if inner, ok := e.X.(*Cast); ok && e.Typ.Bits <= inner.Typ.Bits {
			return &Cast{X: inner.X, Typ: e.Typ}
		}
		return e
	case *Load:
		for i := range e.Idx {
			e.Idx[i] = FoldExpr(e.Idx[i])
		}
		return e
	case *LutRef:
		e.Idx = FoldExpr(e.Idx)
		// A constant ROM index folds to the ROM content.
		if c, ok := e.Idx.(*Const); ok && c.Val >= 0 && c.Val < int64(e.Rom.Size) {
			return &Const{Val: e.Rom.Content[c.Val], Typ: e.Rom.Elem}
		}
		return e
	default:
		return e
	}
}

func coerceConst(e Expr, t cc.IntType) Expr {
	if c, ok := e.(*Const); ok {
		return &Const{Val: t.Wrap(c.Val), Typ: t}
	}
	if e.Type() == t {
		return e
	}
	return &Cast{X: e, Typ: t}
}

// simplifyBin applies identity/annihilator algebra when one side is
// constant.
func simplifyBin(e *Bin, x *Const, xc bool, y *Const, yc bool) Expr {
	switch e.Op {
	case OpAdd:
		if yc && y.Val == 0 {
			return coerceConst(e.X, e.Typ)
		}
		if xc && x.Val == 0 {
			return coerceConst(e.Y, e.Typ)
		}
	case OpSub:
		if yc && y.Val == 0 {
			return coerceConst(e.X, e.Typ)
		}
	case OpMul:
		if yc {
			switch y.Val {
			case 0:
				return &Const{Val: 0, Typ: e.Typ}
			case 1:
				return coerceConst(e.X, e.Typ)
			}
		}
		if xc {
			switch x.Val {
			case 0:
				return &Const{Val: 0, Typ: e.Typ}
			case 1:
				return coerceConst(e.Y, e.Typ)
			}
		}
	case OpShl, OpShr:
		if yc && y.Val == 0 {
			return coerceConst(e.X, e.Typ)
		}
	case OpOr, OpXor:
		if yc && y.Val == 0 {
			return coerceConst(e.X, e.Typ)
		}
		if xc && x.Val == 0 {
			return coerceConst(e.Y, e.Typ)
		}
	case OpAnd:
		if (yc && y.Val == 0) || (xc && x.Val == 0) {
			return &Const{Val: 0, Typ: e.Typ}
		}
	case OpDiv:
		if yc && y.Val == 1 {
			return coerceConst(e.X, e.Typ)
		}
	}
	return e
}
