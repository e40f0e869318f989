package ctrl

import (
	"testing"

	"roccc/internal/hir"
)

func TestReadGenSequential(t *testing.T) {
	g := NewReadGen(10, 3)
	var got []int
	for !g.Done() {
		got = append(got, g.Next()...)
	}
	if len(got) != 10 {
		t.Fatalf("issued %d addresses, want 10", len(got))
	}
	for i, a := range got {
		if a != i {
			t.Errorf("address %d = %d", i, a)
		}
	}
	if g.Next() != nil {
		t.Error("Next after done must return nil")
	}
	g.Reset()
	if g.Done() {
		t.Error("reset generator reports done")
	}
}

func TestReadGenBusBatches(t *testing.T) {
	g := NewReadGen(8, 4)
	if n := len(g.Next()); n != 4 {
		t.Errorf("first batch = %d", n)
	}
	if n := len(g.Next()); n != 4 {
		t.Errorf("second batch = %d", n)
	}
	if !g.Done() {
		t.Error("not done after 8 addresses")
	}
}

func nest1D(iv *hir.Var, from, to, step int64) *hir.LoopNest {
	return &hir.LoopNest{
		Vars: []*hir.Var{iv},
		From: []int64{from},
		To:   []int64{to},
		Step: []int64{step},
	}
}

func TestWriteGen1D(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{20}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: iv, Scale: 1}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0}, Elem: &hir.Var{Name: "t0"}},
		},
	}
	g, err := NewWriteGen(acc, nest1D(iv, 0, 17, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		addrs := g.Next()
		if len(addrs) != 1 || addrs[0] != i {
			t.Fatalf("iteration %d: addrs = %v", i, addrs)
		}
	}
	if !g.Done() || g.Next() != nil {
		t.Error("generator not exhausted after the nest")
	}
}

func TestWriteGenStride8(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "Y", Dims: []int{64}}
	elems := make([]hir.WindowElem, 8)
	for k := range elems {
		elems[k] = hir.WindowElem{Offsets: []int64{int64(k)}, Elem: &hir.Var{Name: "t"}}
	}
	acc := &hir.WriteAccess{Arr: arr, Dims: []hir.WindowDim{{Var: iv, Scale: 1}}, Elems: elems}
	g, err := NewWriteGen(acc, nest1D(iv, 0, 64, 8))
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 8; blk++ {
		addrs := g.Next()
		for k, a := range addrs {
			if a != blk*8+k {
				t.Fatalf("block %d elem %d: addr %d", blk, k, a)
			}
		}
	}
	if !g.Done() {
		t.Error("not done")
	}
}

func TestWriteGen2D(t *testing.T) {
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	j := &hir.Var{Name: "j", Kind: hir.VarLoop}
	nest := &hir.LoopNest{
		Vars: []*hir.Var{i, j},
		From: []int64{0, 0},
		To:   []int64{3, 4},
		Step: []int64{1, 1},
	}
	arr := &hir.Array{Name: "out", Dims: []int{3, 4}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: i, Scale: 1}, {Var: j, Scale: 1}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0, 0}, Elem: &hir.Var{Name: "t"}},
		},
	}
	g, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for !g.Done() {
		addrs := g.Next()
		if addrs == nil {
			break
		}
		if addrs[0] != want {
			t.Fatalf("addr = %d, want %d (row-major order)", addrs[0], want)
		}
		want++
	}
	if want != 12 {
		t.Errorf("iterations = %d, want 12", want)
	}
}

func TestWriteGenScaled(t *testing.T) {
	// wavelet-style: out[i][j] with stride-2 scale on a nest over 14x14.
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "LL", Dims: []int{14}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: i, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	g, err := NewWriteGen(acc, nest1D(i, 0, 14, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for !g.Done() {
		if g.Next() == nil {
			break
		}
		n++
	}
	if n != 14 {
		t.Errorf("n = %d", n)
	}
}

func TestWriteGenRejectsUnknownVar(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	other := &hir.Var{Name: "x"}
	arr := &hir.Array{Name: "C", Dims: []int{8}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: other, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	if _, err := NewWriteGen(acc, nest1D(iv, 0, 8, 1)); err == nil {
		t.Error("unknown index variable not rejected")
	}
}

func TestControllerFSM(t *testing.T) {
	c := NewController(3, 2)
	if c.StateNow() != Idle {
		t.Error("controller must start idle")
	}
	// Window not ready: fill, no feed.
	if c.Tick(false) {
		t.Error("fed without a ready window")
	}
	if c.StateNow() != Fill {
		t.Errorf("state = %s, want fill", c.StateNow())
	}
	// Feed three iterations.
	for i := 0; i < 3; i++ {
		if !c.Tick(true) {
			t.Fatalf("iteration %d not fed", i)
		}
	}
	if c.Fed() != 3 {
		t.Errorf("fed = %d", c.Fed())
	}
	// No more feeds.
	if c.Tick(true) {
		t.Error("fed beyond the iteration count")
	}
	if c.StateNow() != Drain {
		t.Errorf("state = %s, want drain", c.StateNow())
	}
	for i := 0; i < 3; i++ {
		c.Collect()
	}
	if !c.Finished() {
		t.Errorf("state = %s, want done", c.StateNow())
	}
}

func TestControllerStateStrings(t *testing.T) {
	for _, s := range []State{Idle, Fill, Stream, Drain, DoneSt} {
		if s.String() == "?" {
			t.Errorf("state %d has no name", s)
		}
	}
}

// TestGeneratorResetAndNextInto pins the reuse surface the netlist
// cycle loop depends on: NextInto fills caller buffers without
// allocating, and Reset rewinds both generator kinds and the controller
// for an identical second run.
func TestGeneratorResetAndNextInto(t *testing.T) {
	rg := NewReadGen(7, 3)
	buf := make([]int, 3)
	var got []int
	for {
		batch := rg.NextInto(buf)
		if batch == nil {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != 7 {
		t.Fatalf("issued %d addresses, want 7", len(got))
	}

	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{8}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: iv, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	wg, err := NewWriteGen(acc, nest1D(iv, 0, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []int {
		dst := make([]int, 1)
		var addrs []int
		for {
			a := wg.NextInto(dst)
			if a == nil {
				break
			}
			addrs = append(addrs, a[0])
		}
		return addrs
	}
	first := collect()
	if len(first) != 8 || !wg.Done() {
		t.Fatalf("first pass: %v", first)
	}
	wg.Reset()
	if wg.Done() {
		t.Fatal("Reset generator reports done")
	}
	second := collect()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("address %d after Reset = %d, want %d", i, second[i], first[i])
		}
	}

	c := NewController(2, 1)
	c.Tick(true)
	c.Tick(true)
	c.Collect()
	c.Collect()
	if !c.Finished() {
		t.Fatal("controller not finished")
	}
	c.Reset()
	if c.StateNow() != Idle || c.Fed() != 0 || c.Collected() != 0 || c.Finished() {
		t.Fatal("controller Reset did not return to idle")
	}
}

// TestTickFeedN pins the bulk admit against the per-cycle FSM: n
// guaranteed feed Ticks and one TickFeedN(n) must agree on fed count
// and state from every reachable starting point, and the bulk form
// must refuse (admitting nothing) what the serial form would refuse.
func TestTickFeedN(t *testing.T) {
	for _, pre := range []int{0, 1, 5} {
		for _, n := range []int{1, 3, 5} {
			a := NewController(8, 2)
			b := NewController(8, 2)
			for i := 0; i < pre; i++ {
				a.Tick(true)
				b.Tick(true)
			}
			want := pre+n <= 8
			if got := b.TickFeedN(n); got != want {
				t.Fatalf("pre=%d n=%d: TickFeedN = %v, want %v", pre, n, got, want)
			}
			if !want {
				if b.Fed() != pre {
					t.Fatalf("refused TickFeedN still admitted: fed %d", b.Fed())
				}
				continue
			}
			for i := 0; i < n; i++ {
				if !a.Tick(true) {
					t.Fatalf("pre=%d n=%d: serial Tick %d refused", pre, n, i)
				}
			}
			if a.Fed() != b.Fed() || a.StateNow() != b.StateNow() {
				t.Fatalf("pre=%d n=%d: serial fed=%d state=%s, bulk fed=%d state=%s",
					pre, n, a.Fed(), a.StateNow(), b.Fed(), b.StateNow())
			}
		}
	}
	// Draining controllers admit nothing.
	c := NewController(2, 1)
	c.Tick(true)
	c.Tick(true)
	if c.StateNow() != Drain {
		t.Fatal("controller not draining")
	}
	if c.TickFeedN(1) {
		t.Error("TickFeedN admitted a feed while draining")
	}
	if c.TickFeedN(0) {
		// Zero-length streaks are vacuously fine but nothing to admit.
		t.Error("TickFeedN(0) reported an admit")
	}
}

// TestReadGenNextRange pins the ranged form against NextInto: the same
// consecutive addresses, the same exhaustion point.
func TestReadGenNextRange(t *testing.T) {
	a := NewReadGen(10, 4)
	b := NewReadGen(10, 4)
	buf := make([]int, 4)
	for {
		addrs := a.NextInto(buf)
		start, n := b.NextRange()
		if (addrs == nil) != (n == 0) {
			t.Fatalf("exhaustion mismatch: addrs=%v n=%d", addrs, n)
		}
		if addrs == nil {
			break
		}
		if len(addrs) != n || addrs[0] != start {
			t.Fatalf("NextInto %v vs NextRange (%d,%d)", addrs, start, n)
		}
	}
	if !b.Done() {
		t.Error("ranged generator not done")
	}
}

// TestWriteGenFastPathParity drives the compiled depth-1 fast path and
// a shadow generator forced through the generic loop over the same
// access pattern; every address batch must match.
func TestWriteGenFastPathParity(t *testing.T) {
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{40}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: i, Scale: 2}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0}, Elem: &hir.Var{Name: "t0"}},
			{Offsets: []int64{1}, Elem: &hir.Var{Name: "t1"}},
		},
	}
	nest := nest1D(i, 1, 37, 2)
	fast, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.fast {
		t.Fatal("depth-1 single-dim access did not compile the fast path")
	}
	slow, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	slow.fast = false
	fb, sb := make([]int, 2), make([]int, 2)
	for step := 0; ; step++ {
		fa := fast.NextInto(fb)
		sa := slow.NextInto(sb)
		if (fa == nil) != (sa == nil) {
			t.Fatalf("step %d: exhaustion mismatch", step)
		}
		if fa == nil {
			break
		}
		for ei := range fa {
			if fa[ei] != sa[ei] {
				t.Fatalf("step %d elem %d: fast %d, generic %d", step, ei, fa[ei], sa[ei])
			}
		}
	}
	if fast.Done() != slow.Done() {
		t.Error("done mismatch")
	}
}

// TestWriteGenNextRunMatchesNextInto drives NextRun with assorted run
// caps against a NextInto reference over 1-D, strided, multi-element,
// 2-D and outer-only write shapes: every run must expand to exactly the
// reference's per-iteration addresses (base + t*RunStride) and stay
// inside one innermost row.
func TestWriteGenNextRunMatchesNextInto(t *testing.T) {
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	j := &hir.Var{Name: "j", Kind: hir.VarLoop}
	nest2 := &hir.LoopNest{
		Vars: []*hir.Var{i, j},
		From: []int64{1, 0},
		To:   []int64{4, 7},
		Step: []int64{1, 2},
	}
	elem := func(offs ...int64) hir.WindowElem { return hir.WindowElem{Offsets: offs, Elem: &hir.Var{Name: "t"}} }
	for _, tc := range []struct {
		name string
		acc  *hir.WriteAccess
		nest *hir.LoopNest
		want int // RunStride
	}{
		{"dct-8", &hir.WriteAccess{Arr: &hir.Array{Name: "Y", Dims: []int{64}},
			Dims:  []hir.WindowDim{{Var: i, Scale: 1}},
			Elems: []hir.WindowElem{elem(0), elem(4), elem(2), elem(6), elem(1), elem(3), elem(5), elem(7)}},
			nest1D(i, 0, 64, 8), 8},
		{"scaled", &hir.WriteAccess{Arr: &hir.Array{Name: "C", Dims: []int{40}},
			Dims: []hir.WindowDim{{Var: i, Scale: 2}}, Elems: []hir.WindowElem{elem(0), elem(1)}},
			nest1D(i, 1, 37, 2), 4},
		{"2d", &hir.WriteAccess{Arr: &hir.Array{Name: "O", Dims: []int{5, 16}},
			Dims:  []hir.WindowDim{{Var: i, Scale: 1}, {Var: j, Scale: 1}},
			Elems: []hir.WindowElem{elem(0, 0), elem(0, 1)}}, nest2, 2},
		{"outer-only", &hir.WriteAccess{Arr: &hir.Array{Name: "R", Dims: []int{5}},
			Dims: []hir.WindowDim{{Var: i, Scale: 1}}, Elems: []hir.WindowElem{elem(0)}}, nest2, 0},
		{"transposed", &hir.WriteAccess{Arr: &hir.Array{Name: "T", Dims: []int{8, 5}},
			Dims:  []hir.WindowDim{{Var: j, Scale: 1}, {Var: i, Scale: 1}},
			Elems: []hir.WindowElem{elem(0, 0)}}, nest2, 10},
	} {
		for _, cap := range []int{1, 2, 3, 5, 1 << 20} {
			ref, err := NewWriteGen(tc.acc, tc.nest)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := NewWriteGen(tc.acc, tc.nest)
			stride := RunStride(tc.acc, tc.nest)
			if stride != tc.want {
				t.Fatalf("%s: RunStride %d, want %d", tc.name, stride, tc.want)
			}
			ne := len(tc.acc.Elems)
			bases, rb := make([]int, ne), make([]int, ne)
			runs := 0
			for {
				b, n := g.NextRun(bases, cap)
				if b == nil {
					if ref.NextInto(rb) != nil {
						t.Fatalf("%s cap %d: NextRun exhausted before NextInto", tc.name, cap)
					}
					break
				}
				if n < 1 || n > cap || n > int(tc.nest.Trips(tc.nest.Depth()-1)) {
					t.Fatalf("%s cap %d: run of %d", tc.name, cap, n)
				}
				for it := 0; it < n; it++ {
					want := ref.NextInto(rb)
					if want == nil {
						t.Fatalf("%s cap %d: run overran the iteration space", tc.name, cap)
					}
					for e := range want {
						if got := b[e] + it*stride; got != want[e] {
							t.Fatalf("%s cap %d run %d iteration %d elem %d: addr %d, want %d", tc.name, cap, runs, it, e, got, want[e])
						}
					}
				}
				runs++
			}
			if !g.Done() || !ref.Done() {
				t.Fatalf("%s cap %d: done mismatch (run %v, ref %v)", tc.name, cap, g.Done(), ref.Done())
			}
			if b, n := g.NextRun(bases, cap); b != nil || n != 0 {
				t.Fatalf("%s: NextRun after exhaustion = %v, %d", tc.name, b, n)
			}
		}
	}
}

func TestReadGenAdvance(t *testing.T) {
	g := NewReadGen(10, 3)
	if s := g.Advance(4); s != 0 {
		t.Fatalf("first Advance start %d", s)
	}
	if s, n := g.NextRange(); s != 4 || n != 3 {
		t.Fatalf("NextRange after Advance = %d,%d, want 4,3", s, n)
	}
	if s := g.Advance(100); s != 7 || !g.Done() {
		t.Fatalf("clamped Advance start %d done %v", s, g.Done())
	}
}

func TestControllerCollectN(t *testing.T) {
	a, b := NewController(6, 2), NewController(6, 2)
	for _, c := range []*Controller{a, b} {
		if !c.TickFeedN(6) {
			t.Fatal("TickFeedN refused")
		}
	}
	a.CollectN(4)
	for k := 0; k < 4; k++ {
		b.Collect()
	}
	if a.Collected() != b.Collected() || a.StateNow() != b.StateNow() {
		t.Fatalf("CollectN(4) = %d/%v, 4×Collect = %d/%v", a.Collected(), a.StateNow(), b.Collected(), b.StateNow())
	}
	a.CollectN(2)
	if !a.Finished() {
		t.Fatal("controller not finished after collecting every iteration")
	}
}
