package hir

// linearize.go rewrites expression trees into three-address form: every
// intermediate operation gets its own compiler temporary. The back end
// lowers instruction-per-operation anyway; doing it at HIR level lets
// local value numbering (cse.go) find repeated subexpressions, which is
// how the DCT kernel "explores the symmetry within the cosine
// coefficients" (§5).

// Linearize flattens all expressions in f into three-address form.
func Linearize(f *Func) {
	f.Body = linStmts(f, f.Body)
}

func linStmts(f *Func, list []Stmt) []Stmt {
	out := make([]Stmt, 0, len(list))
	emit := func(s Stmt) { out = append(out, s) }
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			src := linExpr(f, s.Src, emit, true)
			emit(&Assign{Dst: s.Dst, Src: src})
		case *StoreNext:
			src := linExpr(f, s.Src, emit, false)
			emit(&StoreNext{Var: s.Var, Src: src})
		case *Store:
			idx := make([]Expr, len(s.Idx))
			for i, ix := range s.Idx {
				idx[i] = linExpr(f, ix, emit, false)
			}
			src := linExpr(f, s.Src, emit, false)
			emit(&Store{Arr: s.Arr, Idx: idx, Src: src})
		case *If:
			cond := linExpr(f, s.Cond, emit, false)
			emit(&If{Cond: cond, Then: linStmts(f, s.Then), Else: linStmts(f, s.Else)})
		case *For:
			// Loop bounds stay as-is (they feed the controller, not the
			// data path); the body is linearized.
			emit(&For{Var: s.Var, From: s.From, To: s.To, Step: s.Step, Body: linStmts(f, s.Body)})
		default:
			emit(s)
		}
	}
	return out
}

// linExpr linearizes e, emitting temp assignments via emit. When top is
// true the (single-op) root expression is returned as-is so the caller's
// assignment keeps one operation; otherwise a leaf (VarRef/Const) is
// returned.
func linExpr(f *Func, e Expr, emit func(Stmt), top bool) Expr {
	materialize := func(x Expr) Expr {
		t := f.NewTemp(x.Type())
		emit(&Assign{Dst: t, Src: x})
		return &VarRef{Var: t}
	}
	var lower func(e Expr, root bool) Expr
	lower = func(e Expr, root bool) Expr {
		switch e := e.(type) {
		case *Const, *VarRef, *LoadPrev:
			return e
		case *Load:
			idx := make([]Expr, len(e.Idx))
			for i, ix := range e.Idx {
				idx[i] = lower(ix, false)
			}
			n := &Load{Arr: e.Arr, Idx: idx}
			if root {
				return n
			}
			return materialize(n)
		case *LutRef:
			n := &LutRef{Rom: e.Rom, Idx: lower(e.Idx, false)}
			if root {
				return n
			}
			return materialize(n)
		case *Un:
			n := &Un{Op: e.Op, X: lower(e.X, false), Typ: e.Typ}
			if root {
				return n
			}
			return materialize(n)
		case *Bin:
			n := &Bin{Op: e.Op, X: lower(e.X, false), Y: lower(e.Y, false), Typ: e.Typ}
			if root {
				return n
			}
			return materialize(n)
		case *Sel:
			n := &Sel{Cond: lower(e.Cond, false), Then: lower(e.Then, false),
				Else: lower(e.Else, false), Typ: e.Typ}
			if root {
				return n
			}
			return materialize(n)
		case *Cast:
			n := &Cast{X: lower(e.X, false), Typ: e.Typ}
			if root {
				return n
			}
			return materialize(n)
		default:
			return e
		}
	}
	return lower(e, top)
}
