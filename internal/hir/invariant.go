package hir

// invariant.go implements loop-invariant code motion: scalar assignments
// whose right-hand sides do not depend on anything the loop changes are
// hoisted in front of the loop.

// HoistInvariants moves loop-invariant assignments out of every loop in
// f (innermost first) and returns the number of hoisted statements.
func HoistInvariants(f *Func) int {
	n := 0
	f.Body = hoistInList(f.Body, &n)
	return n
}

func hoistInList(list []Stmt, n *int) []Stmt {
	var out []Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *For:
			s.Body = hoistInList(s.Body, n)
			hoisted, rest := splitInvariants(s)
			*n += len(hoisted)
			out = append(out, hoisted...)
			s.Body = rest
			out = append(out, s)
		case *If:
			s.Then = hoistInList(s.Then, n)
			s.Else = hoistInList(s.Else, n)
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}

// splitInvariants pulls hoistable assignments off the front region of
// the loop body. An assignment is hoistable when:
//   - its RHS reads no variable assigned anywhere in the loop,
//   - its RHS does not touch memory or feedback state,
//   - its destination is a local assigned exactly once in the loop, and
//   - the destination is not read earlier in the body (no use of the
//     previous iteration's value).
func splitInvariants(l *For) (hoisted, rest []Stmt) {
	assigned := AssignedVars(l.Body)
	assigned[l.Var] = true
	counts := assignCounts(l.Body)
	for i, s := range l.Body {
		a, ok := s.(*Assign)
		if !ok {
			rest = append(rest, l.Body[i:]...)
			return hoisted, rest
		}
		if a.Dst.Kind != VarLocal || counts[a.Dst] != 1 ||
			exprUses(a.Src, assigned) || exprReadsMemory(a.Src) || readsFeedback(a.Src) {
			rest = append(rest, l.Body[i:]...)
			return hoisted, rest
		}
		// Safe: RHS is invariant and the single definition dominates all
		// uses in the body because it is at the front.
		hoisted = append(hoisted, a)
		delete(assigned, a.Dst)
	}
	return hoisted, rest
}

func assignCounts(list []Stmt) map[*Var]int {
	counts := map[*Var]int{}
	var scan func([]Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				counts[s.Dst]++
			case *StoreNext:
				counts[s.Var]++
			case *If:
				scan(s.Then)
				scan(s.Else)
			case *For:
				counts[s.Var]++
				scan(s.Body)
			}
		}
	}
	scan(list)
	return counts
}

func readsFeedback(e Expr) bool {
	for x := range subExprs(e) {
		if _, ok := x.(*LoadPrev); ok {
			return true
		}
	}
	return false
}
