package netlist

// verify.go is the system slice of the static invariant verifier
// (internal/dpverify, cmd/rocccvet): it checks a compiled sysPlan's
// routing tables, loop-nest odometer, harvest ring geometry and
// needClear derivation against the kernel and data path they were
// compiled from, and a constructed System's buffers against the
// smart-buffer capacity contract — all without running a cycle. Under
// the `dpverify` build tag the plan checks also run at plan-cache time
// (verify_hook_on.go), so every System CI builds carries them.

import (
	"fmt"
	"strings"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// VerifySystem statically checks a constructed System: the data path's
// compiled plan (dp.Verify), the system plan's congruence with kernel
// and data path, the smart-buffer capacity contract for every read
// port, and the sizing of the streak-dispatch scratch buffers.
func VerifySystem(s *System) []dp.Violation {
	vs := dp.Verify(s.Datapath)
	vs = append(vs, verifySysPlan(s.plan, s.Kernel, s.Datapath)...)
	for i, b := range s.buffers {
		for _, msg := range smartbuf.VerifyBuffer(b) {
			vs = append(vs, dp.Violation{Invariant: "system/smartbuf",
				Detail: fmt.Sprintf("read port %d (%s): %s", i, s.plan.reads[i].arrName, msg)})
		}
	}
	p := s.plan
	if len(s.buffers) != len(p.reads) || len(s.readGens) != len(p.reads) || len(s.readBRAMs) != len(p.reads) {
		vs = append(vs, violation("system/wiring", "system carries %d buffers / %d generators / %d BRAMs for %d read plans",
			len(s.buffers), len(s.readGens), len(s.readBRAMs), len(p.reads)))
	}
	if len(s.writeGens) != len(p.writes) || len(s.writeBRAMs) != len(p.writes) {
		vs = append(vs, violation("system/wiring", "system carries %d write generators / %d BRAMs for %d write plans",
			len(s.writeGens), len(s.writeBRAMs), len(p.writes)))
	}
	// Streak-dispatch scratch: a chunk stages one input column of up to
	// streakMax values per data-path input, and the harvest snapshots
	// latency-many pre-chunk fed bits.
	if wantStage := p.streakMax * len(s.Datapath.Inputs); len(s.stage) < wantStage {
		vs = append(vs, violation("system/wiring", "staging buffer holds %d values, a full chunk needs %d", len(s.stage), wantStage))
	}
	if len(s.fedPre) < p.latency {
		vs = append(vs, violation("system/wiring", "fedPre snapshot holds %d bits, the streak harvest needs %d", len(s.fedPre), p.latency))
	}
	if len(s.fedRing) != s.fedMask+1 || s.fedMask != p.fedMask {
		vs = append(vs, violation("system/wiring", "fed ring of %d bits does not match mask %#x (plan mask %#x)", len(s.fedRing), s.fedMask, p.fedMask))
	}
	return vs
}

// verifyReadSources checks the runtime read-side invariant the streak
// path rests on (buffer/ring-source): every read port's ring live span
// equals its read BRAM over the same streaming indices — the streak
// gathers input columns from the BRAM, the serial path pops them from
// the ring — and its generator has issued exactly the elements the
// buffer fetched (streaming index == BRAM address).
func verifyReadSources(s *System) []dp.Violation {
	var vs []dp.Violation
	for i, buf := range s.buffers {
		for _, msg := range smartbuf.VerifyRingSource(buf, s.readBRAMs[i].Data) {
			vs = append(vs, dp.Violation{Invariant: "buffer/ring-source",
				Detail: fmt.Sprintf("read port %d (%s): %s", i, s.plan.reads[i].arrName, strings.TrimPrefix(msg, "buffer/ring-source: "))})
		}
		if got, want := s.readGens[i].Issued(), buf.Fetched(); got != want {
			vs = append(vs, violation("buffer/ring-source", "read port %d (%s): generator issued %d addresses, buffer fetched %d",
				i, s.plan.reads[i].arrName, got, want))
		}
	}
	return vs
}

func violation(inv, format string, args ...any) dp.Violation {
	return dp.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)}
}

// verifySysPlan checks a compiled system plan against its kernel and
// data path: every routing index in bounds, the streak path's column
// routing and write-run geometry re-derived from the buffer
// configurations and write accesses, the loop nest congruent with the
// kernel's, the harvest ring deep enough for the pipeline, and
// needClear re-derived from the actual input coverage.
func verifySysPlan(p *sysPlan, k *hir.Kernel, d *dp.Datapath) []dp.Violation {
	var vs []dp.Violation
	add := func(inv, format string, args ...any) {
		vs = append(vs, violation(inv, format, args...))
	}

	// system/nest: the dense odometer must reproduce the kernel's loop
	// nest exactly — Run's cycle budget and the write generators both
	// derive from it.
	depth := k.Nest.Depth()
	if len(p.from) != depth || len(p.step) != depth || len(p.trips) != depth {
		add("system/nest", "odometer tables cover %d/%d/%d levels for a depth-%d nest", len(p.from), len(p.step), len(p.trips), depth)
	} else {
		total := 1
		for l := 0; l < depth; l++ {
			if p.trips[l] != k.Nest.Trips(l) {
				add("system/nest", "level %d trips %d, kernel nest has %d", l, p.trips[l], k.Nest.Trips(l))
			}
			if p.trips[l] <= 0 {
				add("system/nest", "level %d has non-positive trip count %d", l, p.trips[l])
			}
			if p.from[l] != k.Nest.From[l] {
				add("system/nest", "level %d lower bound %d, kernel nest has %d", l, p.from[l], k.Nest.From[l])
			}
			total *= int(p.trips[l])
		}
		if p.total != total {
			add("system/nest", "plan total %d is not the product of trip counts %d", p.total, total)
		}
	}
	if p.total != int(k.Nest.TotalIterations()) {
		add("system/nest", "plan total %d, kernel nest iterates %d", p.total, k.Nest.TotalIterations())
	}

	// system/streak-bound: the staging block is sized by the longest
	// streak the predictor can prove — the iteration count, the chunk
	// bound, and every read window's row-strip length.
	wantStreak := min(p.total, sysChunkMax)
	for i := range p.reads {
		if w := p.reads[i].cfg.Windows; len(w) > 0 {
			wantStreak = min(wantStreak, w[len(w)-1])
		}
	}
	if p.streakMax != wantStreak {
		add("system/streak-bound", "streakMax %d, the nest and read windows derive %d", p.streakMax, wantStreak)
	}

	// system/harvest-ring: latency must match the data path, and the fed
	// ring must hold latency+1 cycles of history as a power of two —
	// harvest reads the bit from `latency` cycles ago before the current
	// cycle's write wraps onto it.
	if p.latency != d.Latency() {
		add("system/harvest-ring", "plan latency %d, data path latency %d", p.latency, d.Latency())
	}
	if n := p.fedMask + 1; n&(n-1) != 0 || n < p.latency+1 {
		add("system/harvest-ring", "fed ring of %d bits cannot hold latency %d + 1 cycles as a power of two", n, p.latency)
	}

	// system/routing: every dense table must address real data-path
	// ports; -1 marks a deliberately unrouted slot.
	nIn, nOut := len(d.Inputs), len(d.Outputs)
	if len(p.reads) != len(k.Reads) {
		add("system/routing", "%d read plans for %d kernel read windows", len(p.reads), len(k.Reads))
	}
	for i := range p.reads {
		rp := &p.reads[i]
		if err := rp.cfg.Validate(); err != nil {
			add("system/routing", "read port %d (%s): invalid buffer config: %v", i, rp.arrName, err)
		}
		if len(rp.route) != len(rp.cfg.Taps) {
			add("system/routing", "read port %d (%s): %d route entries for %d window taps", i, rp.arrName, len(rp.route), len(rp.cfg.Taps))
		}
		for t, ix := range rp.route {
			if ix < -1 || int(ix) >= nIn {
				add("system/routing", "read port %d (%s): tap %d routes to input %d of %d", i, rp.arrName, t, ix, nIn)
			}
		}
	}
	// system/column-routing: the streak path's columns must be exactly
	// the routed taps, each at the tap's streaming-index offset from the
	// window origin, and the per-cycle origin advance must be the
	// innermost window stride — otherwise gathered columns silently
	// differ from the windows the serial path pops.
	for i := range p.reads {
		rp := &p.reads[i]
		c := rp.cfg
		if c.Validate() != nil || len(rp.route) != len(c.Taps) {
			continue // reported above as config/routing violations
		}
		if want := c.Stride[len(c.Stride)-1]; rp.stride != want {
			add("system/column-routing", "read port %d (%s): tap stride %d, innermost window stride is %d", i, rp.arrName, rp.stride, want)
		}
		var want []tapCol
		for t, ix := range rp.route {
			if ix < 0 {
				continue
			}
			tap := c.Taps[t]
			if len(tap) != len(c.Extent) {
				add("system/column-routing", "read port %d (%s): tap %d has %d coordinates for a %d-D window", i, rp.arrName, t, len(tap), len(c.Extent))
				continue
			}
			off := int(tap[len(tap)-1]) - c.MinOff[len(c.MinOff)-1]
			if len(tap) == 2 {
				off += (int(tap[0]) - c.MinOff[0]) * c.ArrayDims[1]
			}
			want = append(want, tapCol{in: int(ix), off: off})
		}
		if len(rp.cols) != len(want) {
			add("system/column-routing", "read port %d (%s): %d input columns for %d routed taps", i, rp.arrName, len(rp.cols), len(want))
			continue
		}
		for j := range want {
			if rp.cols[j] != want[j] {
				add("system/column-routing", "read port %d (%s): column %d is %+v, the routed tap derives %+v", i, rp.arrName, j, rp.cols[j], want[j])
			}
		}
	}
	if len(p.writes) != len(k.Writes) {
		add("system/routing", "%d write plans for %d kernel write accesses", len(p.writes), len(k.Writes))
	}
	for i := range p.writes {
		wp := &p.writes[i]
		for e, ix := range wp.outIdx {
			if ix < 0 || ix >= nOut {
				add("system/routing", "write port %d (%s): element %d routes to output %d of %d", i, wp.arrName, e, ix, nOut)
			}
		}
	}
	// system/write-run: the harvest's run geometry. stride is the flat
	// address step per innermost iteration; runMax must be 1 exactly
	// when two elements' flat offsets differ by a nonzero multiple of
	// it (a column-by-column run would then reorder colliding stores).
	for i := range p.writes {
		wp := &p.writes[i]
		if wp.acc == nil || depth == 0 {
			continue
		}
		inner := k.Nest.Vars[depth-1]
		stride := 0
		flat := make([]int, len(wp.acc.Elems))
		for d, dim := range wp.acc.Dims {
			rowLen := 1
			if d == 0 && len(wp.acc.Dims) == 2 {
				rowLen = wp.acc.Arr.Dims[1]
			}
			if dim.Var == inner {
				stride += int(k.Nest.Step[depth-1]*dim.Scale) * rowLen
			}
			for e, el := range wp.acc.Elems {
				flat[e] += int(el.Offsets[d]) * rowLen
			}
		}
		if wp.stride != stride {
			add("system/write-run", "write port %d (%s): run stride %d, the access derives %d", i, wp.arrName, wp.stride, stride)
			continue
		}
		collide := false
		for e := range flat {
			for f := range flat {
				if d := flat[e] - flat[f]; stride != 0 && d != 0 && d%stride == 0 {
					collide = true
				}
			}
		}
		wantMax := p.total
		if collide {
			wantMax = 1
		}
		if wp.runMax != wantMax {
			add("system/write-run", "write port %d (%s): runs capped at %d iterations, want %d (colliding elements: %v)", i, wp.arrName, wp.runMax, wantMax, collide)
		}
	}
	for i, iv := range p.ivs {
		if iv.in < 0 || iv.in >= nIn {
			add("system/routing", "IV %d routes to input %d of %d", i, iv.in, nIn)
		}
		if iv.level < 0 || iv.level >= depth {
			add("system/routing", "IV %d reads nest level %d of %d", i, iv.level, depth)
		}
	}
	if len(p.scalarIn) != len(k.ScalarParams) {
		add("system/routing", "%d scalar routes for %d scalar parameters", len(p.scalarIn), len(k.ScalarParams))
	}
	for i, ix := range p.scalarIn {
		if ix < -1 || ix >= nIn {
			add("system/routing", "scalar %d routes to input %d of %d", i, ix, nIn)
		}
	}

	// system/need-clear: re-derive input coverage. needClear may only be
	// false when every data-path input is overwritten each feed cycle;
	// a stale value surviving into an uncovered port would silently
	// corrupt the stream.
	covered := make([]bool, nIn)
	mark := func(ix int) {
		if ix >= 0 && ix < nIn {
			covered[ix] = true
		}
	}
	for i := range p.reads {
		for _, ix := range p.reads[i].route {
			mark(int(ix))
		}
	}
	for _, iv := range p.ivs {
		mark(iv.in)
	}
	for _, ix := range p.scalarIn {
		mark(ix)
	}
	wantClear := false
	for _, c := range covered {
		if !c {
			wantClear = true
		}
	}
	if p.needClear != wantClear {
		add("system/need-clear", "plan records needClear=%v, input coverage derives %v", p.needClear, wantClear)
	}
	return vs
}
