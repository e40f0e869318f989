package hir

// dce.go implements dead code elimination: assignments whose targets are
// never observed (by outputs, memory stores, feedback stores or later
// reads) are deleted.

// DCE removes dead scalar assignments from f, iterating to a fixed
// point. Stores, StoreNexts, loops and conditionals with live bodies are
// always kept; globals and outputs are always observable.
func DCE(f *Func) {
	for {
		live := map[*Var]bool{}
		for _, o := range f.Outs {
			live[o] = true
		}
		// Seed with everything observable.
		markLive(f.Body, live)
		changed := false
		f.Body = sweep(f.Body, live, &changed)
		if !changed {
			return
		}
	}
}

// markLive computes an over-approximation of live variables: any var
// read anywhere, plus globals and feedback targets (their final values
// are architectural state).
func markLive(list []Stmt, live map[*Var]bool) {
	for v := range UsedVars(list) {
		live[v] = true
	}
	var scan func([]Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				if s.Dst.Kind == VarGlobal || s.Dst.Kind == VarFeedback || s.Dst.Kind == VarOut {
					live[s.Dst] = true
				}
			case *StoreNext:
				live[s.Var] = true
			case *If:
				scan(s.Then)
				scan(s.Else)
			case *For:
				live[s.Var] = true
				scan(s.Body)
			}
		}
	}
	scan(list)
}

func sweep(list []Stmt, live map[*Var]bool, changed *bool) []Stmt {
	out := make([]Stmt, 0, len(list))
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			if !live[s.Dst] && !exprReadsMemory(s.Src) {
				*changed = true
				continue
			}
			out = append(out, s)
		case *If:
			s.Then = sweep(s.Then, live, changed)
			s.Else = sweep(s.Else, live, changed)
			if len(s.Then) == 0 && len(s.Else) == 0 {
				*changed = true
				continue
			}
			out = append(out, s)
		case *For:
			s.Body = sweep(s.Body, live, changed)
			if len(s.Body) == 0 {
				*changed = true
				continue
			}
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}
