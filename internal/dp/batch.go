package dp

import (
	"errors"
	"fmt"

	"roccc/internal/vm"
)

// batch.go is the lane-parallel batch execution path of the compiled
// simulator. Step dispatches the whole plan once per clock; for
// sweep-style workloads (thousands of iterations through one data path)
// that per-cycle dispatch dominates. StepN/DrainN instead execute N
// clocks per call over a structure-of-arrays lane layout: one flat
// region of lane values per op, one valid/poison bit per lane, and one
// switch dispatch per op per chunk instead of per op per cycle.
//
// Correctness carve-outs, both pinned by differential tests against the
// serial core:
//
//   - Feedback latches carry a loop-carried dependence (iteration i's
//     LPR reads what iteration i-1's SNX committed), so the feedback
//     cone of the plan (simPlan.batchB) serializes lane by lane while
//     everything before/after it still runs op-major (batchA/batchC).
//   - Faults must abort on the same cycle with the same state as the
//     serial core. The batch computes into scratch lanes without
//     touching the ring, so on the first detected fault the scratch is
//     discarded and the chunk replays through the serial step — the
//     abort cycle, error and post-abort state are Step's exactly.

// batchChunkMax bounds the lane scratch: a StepN over millions of
// iterations runs as a sequence of chunks, keeping the scratch at
// nOps × (stages + batchChunkMax) values. The scratch lives as long as
// its Sim — one per pooled System — so the bound is also a memory
// budget: beyond ~128 lanes the per-op dispatch is already amortized.
const batchChunkMax = 128

// batchSerialMax is the largest chunk still run through the serial core:
// below it the op-major pass spends more time seeding in-flight lanes
// than it saves on dispatch.
const batchSerialMax = 2

// errBatchFault signals (internally) that a valid lane hit a faulting
// op; the chunk is replayed serially to reproduce the exact abort.
var errBatchFault = errors.New("dp: sim: batch lane fault")

// StepN advances n clocks, feeding one valid iteration per clock from
// a column-major input block: len(Inputs) contiguous columns of n
// values, column i holding input port i's value for every clock. It is
// bit-identical to n successive Step calls. The returned block is
// column-major too — one contiguous column of n values per output port,
// row r being the outputs visible after clock r — and, like Step's
// slice, it is reused between calls; copy it to retain values. On a
// fault (e.g. division by zero on a valid iteration) the faulting cycle
// is aborted exactly as Step aborts it: every cycle before it has
// committed, the error is Step's error, and the returned block still
// holds the output rows of those committed cycles (Cycle() tells how
// many there are).
//
//roccc:hotpath
func (s *Sim) StepN(inputs []int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("dp: sim: StepN with negative count %d", n)
	}
	if inW := len(s.p.inSlots); len(inputs) != n*inW {
		return nil, fmt.Errorf("dp: sim: StepN: %d input values, want %d (%d cycles × %d ports)",
			len(inputs), n*inW, n, inW)
	}
	return s.batchRun(inputs, n, true)
}

// DrainN advances n clocks with pipeline bubbles, bit-identical to n
// successive Drain calls: zero inputs enter, the bubbles carry poison
// bits, faults in bubble lanes are masked and bubbles never commit
// feedback latches. The returned column-major output block (one column
// of n values per output port) is reused between calls; on a fault it
// holds the rows of the cycles committed before it, as for StepN.
//
// Once the pipeline has been empty long enough that every value the
// plan can still read back is a bubble's (quietAfter), a Drain clock is
// a fixed point — it recomputes exactly the values already in the ring
// — so DrainN advances the clock over the rest of the request without
// computing it and repeats the last output row.
//
//roccc:hotpath
func (s *Sim) DrainN(n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("dp: sim: DrainN with negative count %d", n)
	}
	return s.batchRun(nil, n, false)
}

// RunBatch is Run on the batch path over a column-major input block
// (len(Inputs) columns of n values, as StepN takes): all iterations are
// fed through StepN, the pipeline is drained through DrainN, and the
// outputs come back as a freshly allocated column-major block of n rows
// aligned with the iterations — bit-identical to Run over the same
// vectors, including the cycle a fault aborts on.
func (s *Sim) RunBatch(inputs []int64, n int) ([]int64, error) {
	if n <= 0 {
		return nil, nil
	}
	outW := len(s.p.outSlots)
	lat := s.p.latency
	res := make([]int64, n*outW)
	stepOut, err := s.StepN(inputs, n)
	if err != nil {
		return nil, err
	}
	// Iteration r exits at clock r+lat: the StepN rows from lat on, then
	// the drain rows that complete the alignment.
	first := min(lat, n)
	for j := 0; j < outW; j++ {
		copy(res[j*n:], stepOut[j*n+first:(j+1)*n])
	}
	drainOut, err := s.DrainN(lat)
	if err != nil {
		return nil, err
	}
	for j := 0; j < outW; j++ {
		copy(res[j*n+n-first:(j+1)*n], drainOut[j*lat+lat-first:(j+1)*lat])
	}
	return res, nil
}

// batchRun splits an n-clock batch into scratch-bounded chunks over the
// column-major blocks (column stride n), and skips the fixed-point tail
// of a bubble batch.
//
//roccc:hotpath
func (s *Sim) batchRun(inputs []int64, n int, valid bool) ([]int64, error) {
	outW := len(s.p.outSlots)
	if cap(s.batchOut) < n*outW {
		s.batchOut = make([]int64, n*outW)
	}
	out := s.batchOut[:n*outW]
	run := n
	if !valid && n > 0 {
		// Compute at least one row (the one the skipped rows repeat) and
		// every row before the quiet point.
		run = min(n, max(s.lastValid+1+s.p.quietAfter-s.cycle, 1))
	}
	for done := 0; done < run; {
		c := min(run-done, batchChunkMax)
		if err := s.batchChunk(inputs, n, done, c, valid, out); err != nil {
			return out, err
		}
		done += c
	}
	if run < n {
		s.skipQuiet(n, run, out)
	}
	return out, nil
}

// skipQuiet advances the clock over bubble rows [run, n) of a DrainN
// block without computing them: the pipeline holds only bubbles and
// every ring value any op or output can still read back was computed by
// a bubble under the same latch state, so each skipped clock would
// rewrite the values already there. Ring contents and head therefore
// stay as they are (reads are head-relative); only the absolute-cycle
// valid ring and the cycle counter move, and every output column
// repeats its last computed row.
//
//roccc:hotpath
func (s *Sim) skipQuiet(n, run int, out []int64) {
	skip := n - run
	for r := max(0, skip-s.p.rdepth); r < skip; r++ {
		s.validRing[(s.cycle+r)&s.rmask] = false
	}
	s.cycle += skip
	for j := range s.p.outSlots {
		col := out[j*n : (j+1)*n]
		v := col[run-1]
		for r := run; r < n; r++ {
			col[r] = v
		}
	}
}

// serialChunk runs rows [off, off+n) of a column-major batch (column
// stride stride) through the serial core (tiny chunks, pure-feedback
// plans, and fault replays). interpOnly forces the interpreter step
// regardless of backend: fault replays go straight to the canonical
// loop instead of re-entering the threaded step only to fall back again
// on the faulting cycle.
//
//roccc:hotpath
//roccc:serial-replay
func (s *Sim) serialChunk(in []int64, stride, off, n int, valid bool, out []int64, interpOnly bool) error {
	row := s.zeroBuf
	if valid {
		row = s.rowBuf
	}
	for c := off; c < off+n; c++ {
		if valid {
			for i := range row {
				row[i] = in[i*stride+c]
			}
		}
		var o []int64
		var err error
		if interpOnly {
			o, err = s.stepInterp(row, valid)
		} else {
			o, err = s.step(row, valid)
		}
		if err != nil {
			return err
		}
		for j, v := range o {
			out[j*stride+c] = v
		}
	}
	return nil
}

// batchChunk executes rows [off, off+n) (n <= batchChunkMax) of a
// column-major batch on the lane layout, committing ring, valid ring,
// feedback state, cycle count and outputs only after the whole chunk
// has computed fault-free.
//
//roccc:hotpath
func (s *Sim) batchChunk(in []int64, stride, off, n int, valid bool, out []int64) error {
	p := s.p
	// Resolve the backend's compiled artifacts up front: the threaded
	// plan brings its lane kernels and a fixed lane stride; the cone
	// backends bring the closed-form feedback cone (when recognized),
	// which unlocks the lane layout for plans that would otherwise be
	// pure-feedback.
	var tp *threadPlan
	var cone *coneSpec
	switch s.backend {
	case BackendThreaded:
		tp = p.threadFor()
		cone = tp.cone
	case BackendCone:
		cone = p.coneFor()
	}
	if n <= batchSerialMax || (cone == nil && len(p.batchB) > 0 && len(p.batchA)+len(p.batchC) == 0) {
		return s.serialChunk(in, stride, off, n, valid, out, false)
	}
	stages := p.stages
	laneN := stages + n
	if tp != nil {
		// The threaded lane kernels bake region bases against the plan's
		// fixed maximal stride; short chunks leave the tail lanes unused.
		laneN = tp.laneN
	}
	if need := p.nOps * laneN; cap(s.laneVals) < need {
		s.laneVals = make([]int64, need)
	}
	lanes := s.laneVals[:p.nOps*laneN]
	if cap(s.laneValid) < laneN {
		s.laneValid = make([]bool, laneN)
	}
	lv := s.laneValid[:laneN]
	if err := s.batchCompute(in, stride, off, n, valid, lanes, lv, laneN, tp, cone); err != nil {
		// A valid lane hit a faulting op. Nothing has been committed:
		// drop the staged latch writes and replay the chunk serially so
		// the abort cycle, error and state match Step exactly.
		for i := range s.stagedSet {
			s.stagedSet[i] = false
		}
		return s.serialChunk(in, stride, off, n, valid, out, true)
	}
	s.commitChunk(n, valid, lanes, laneN, out, stride, off)
	return nil
}

// batchCompute fills the lane scratch: validity, in-flight seeds from
// the ring, the chunk's input columns, then the three execution classes — each
// class dispatched through the backend's artifacts when present (tp for
// threaded lane kernels, cone for the closed-form feedback cone).
//
//roccc:hotpath
//roccc:chunk-compute
func (s *Sim) batchCompute(in []int64, stride, off, n int, valid bool, lanes []int64, lv []bool, laneN int, tp *threadPlan, cone *coneSpec) error {
	p := s.p
	stages := p.stages
	cycle0 := s.cycle
	it0 := cycle0 - stages
	h0 := s.head
	rmask := s.rmask
	ring := s.ring

	// Lane k holds iteration it0+k: the first `stages` lanes are the
	// iterations (or bubbles) already in flight, the rest are this
	// batch's admissions.
	for k := 0; k < stages; k++ {
		it := it0 + k
		lv[k] = it >= 0 && s.validRing[it&rmask]
	}
	for k := stages; k < stages+n; k++ {
		lv[k] = valid
	}

	// Seed each op's in-flight prefix from the ring: the value op
	// computed for iteration it0+k was written at cycle it0+k+stage,
	// which the ring still holds (rdepth > stages). Only the prefix tail
	// anything can read is seeded — a consumer at stage delta d reads
	// lanes [stages-st-d, stages-st) of the def's region, so lanes below
	// stages-st-ringNeed are never touched (the seeds worklist skips
	// whole regions nobody reads).
	for i := range p.seeds {
		e := &p.seeds[i]
		st := int(e.st)
		pre := stages - st
		k0 := pre - int(e.need)
		if k0 < 0 {
			k0 = 0
		}
		base := int(e.idx) << p.opShift
		lbase := int(e.idx) * laneN
		for k := k0; k < pre; k++ {
			lanes[lbase+k] = ring[base+((h0+stages-1-st-k)&rmask)]
		}
	}

	// Input columns of the pseudo-ops (bubble batches feed zeros): each
	// port's chunk is one contiguous run of its column, copied into the
	// region with the port's wrap hoisted out of the loop — most ports
	// narrow (one shift pair per value), 64-bit ports copy straight
	// through.
	for i := range p.inSlots {
		sl := &p.inSlots[i]
		idx := int(sl.base) >> p.opShift
		lbase := idx*laneN + stages - int(p.opStage[idx])
		dst := lanes[lbase : lbase+n]
		if !valid {
			clear(dst)
			continue
		}
		src := in[i*stride+off : i*stride+off+n][:len(dst)]
		switch sh := uint(sl.w.sh) & 63; {
		case sh == 0:
			copy(dst, src)
		case sl.w.signed:
			for r := range dst {
				dst[r] = src[r] << sh >> sh
			}
		default:
			for r := range dst {
				dst[r] = int64(uint64(src[r]) << sh >> sh)
			}
		}
	}

	if tp != nil {
		if !runLaneFns(tp.laneA, lanes, lv, n) {
			return errBatchFault
		}
	} else if err := s.batchOps(p.batchA, n, lanes, lv, laneN); err != nil {
		return err
	}
	if len(p.batchB) > 0 {
		var err error
		switch {
		case cone != nil && tp != nil:
			err = s.runCone(cone, n, lanes, lv, laneN, tp.coneFns)
		case cone != nil:
			err = s.runCone(cone, n, lanes, lv, laneN, nil)
		default:
			err = s.batchCone(p.batchB, n, lanes, lv, laneN)
		}
		if err != nil {
			return err
		}
	}
	if tp != nil {
		if !runLaneFns(tp.laneC, lanes, lv, n) {
			return errBatchFault
		}
		return nil
	}
	return s.batchOps(p.batchC, n, lanes, lv, laneN)
}

// laneCtx resolves pre-compiled operands against the lane scratch: the
// same iteration lane of the defining op's region, or an immediate.
type laneCtx struct {
	lanes []int64
	laneN int
	sh    uint
}

//roccc:hotpath
func (c *laneCtx) get(o *cOperand, k int) int64 {
	if !o.ring {
		return o.imm
	}
	return c.lanes[(int(o.base)>>c.sh)*c.laneN+k]
}

// laneOperand is an operand resolved once per op for the op-major pass:
// either the defining op's whole lane region or an immediate, so the
// per-lane inner loops index a hoisted slice instead of multiplying the
// region base out on every access.
type laneOperand struct {
	sl  []int64
	imm int64
}

func (o laneOperand) at(k int) int64 {
	if o.sl == nil {
		return o.imm
	}
	return o.sl[k]
}

func (c *laneCtx) operand(o *cOperand) laneOperand {
	if !o.ring {
		return laneOperand{imm: o.imm}
	}
	base := (int(o.base) >> c.sh) * c.laneN
	return laneOperand{sl: c.lanes[base : base+c.laneN]}
}

// batchOps runs one op-major class: one switch dispatch per op, then a
// tight loop over the op's computable lanes. An op at stage st computes
// iterations whose st-stage cycle falls inside this chunk — lanes
// [stages-st, stages-st+n); earlier lanes were seeded, later ones
// belong to a later chunk.
//
//roccc:hotpath
func (s *Sim) batchOps(ops []cop, n int, lanes []int64, lv []bool, laneN int) error {
	p := s.p
	stages := p.stages
	c := laneCtx{lanes: lanes, laneN: laneN, sh: p.opShift}
	for i := range ops {
		op := &ops[i]
		k0 := stages - int(op.stage)
		k1 := k0 + n
		lbase := (int(op.slot) >> p.opShift) * laneN
		dst := lanes[lbase : lbase+laneN]
		a := c.operand(&op.a)
		b := c.operand(&op.b)
		// Raw compute pass: the wrap pass below truncates the whole lane
		// range at once with the op's precompiled wrap mode. The dominant
		// arithmetic ops get equal-length subslice loops (bounds checks
		// hoisted, no per-lane nil branch) for the ring×ring and
		// ring×immediate layouts; everything else takes the generic
		// operand accessor.
		switch op.opc {
		case vm.LDC, vm.MOV, vm.CVT:
			if a.sl != nil {
				copy(dst[k0:k1], a.sl[k0:k1])
			} else {
				for k := k0; k < k1; k++ {
					dst[k] = a.imm
				}
			}
		case vm.ADD:
			if op.wmode != wrapBoth {
				d := dst[k0:k1]
				switch {
				case a.sl != nil && b.sl != nil:
					fusedAdd(d, a.sl[k0:k1], b.sl[k0:k1], op.fw)
				case a.sl != nil:
					fusedAddImm(d, a.sl[k0:k1], b.imm, op.fw)
				case b.sl != nil:
					fusedAddImm(d, b.sl[k0:k1], a.imm, op.fw)
				default:
					fusedFill(d, a.imm+b.imm, op.fw)
				}
				continue
			}
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) + b.at(k)
			}
		case vm.SUB:
			if op.wmode != wrapBoth {
				d := dst[k0:k1]
				switch {
				case a.sl != nil && b.sl != nil:
					fusedSub(d, a.sl[k0:k1], b.sl[k0:k1], op.fw)
				case a.sl != nil:
					fusedAddImm(d, a.sl[k0:k1], -b.imm, op.fw)
				case b.sl != nil:
					fusedSubFrom(d, a.imm, b.sl[k0:k1], op.fw)
				default:
					fusedFill(d, a.imm-b.imm, op.fw)
				}
				continue
			}
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) - b.at(k)
			}
		case vm.MUL:
			if op.wmode != wrapBoth {
				d := dst[k0:k1]
				switch {
				case a.sl != nil && b.sl != nil:
					fusedMul(d, a.sl[k0:k1], b.sl[k0:k1], op.fw)
				case a.sl != nil:
					fusedMulImm(d, a.sl[k0:k1], b.imm, op.fw)
				case b.sl != nil:
					fusedMulImm(d, b.sl[k0:k1], a.imm, op.fw)
				default:
					fusedFill(d, a.imm*b.imm, op.fw)
				}
				continue
			}
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) * b.at(k)
			}
		case vm.DIV:
			for k := k0; k < k1; k++ {
				bv := b.at(k)
				if bv == 0 {
					if lv[k] {
						return errBatchFault
					}
					dst[k] = 0
					continue
				}
				dst[k] = a.at(k) / bv
			}
		case vm.REM:
			for k := k0; k < k1; k++ {
				bv := b.at(k)
				if bv == 0 {
					if lv[k] {
						return errBatchFault
					}
					dst[k] = 0
					continue
				}
				dst[k] = a.at(k) % bv
			}
		case vm.AND:
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) & b.at(k)
			}
		case vm.IOR:
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) | b.at(k)
			}
		case vm.XOR:
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) ^ b.at(k)
			}
		case vm.SHL:
			for k := k0; k < k1; k++ {
				dst[k] = a.at(k) << uint(b.at(k)&63)
			}
		case vm.SHR:
			if op.shrLogical {
				for k := k0; k < k1; k++ {
					dst[k] = int64((uint64(a.at(k)) & op.shrMask) >> uint(b.at(k)&63))
				}
			} else {
				for k := k0; k < k1; k++ {
					dst[k] = a.at(k) >> uint(b.at(k)&63)
				}
			}
		case vm.NEG:
			for k := k0; k < k1; k++ {
				dst[k] = -a.at(k)
			}
		case vm.NOT:
			for k := k0; k < k1; k++ {
				dst[k] = ^a.at(k)
			}
		case vm.SEQ:
			for k := k0; k < k1; k++ {
				dst[k] = boolBit(a.at(k) == b.at(k))
			}
		case vm.SNE:
			for k := k0; k < k1; k++ {
				dst[k] = boolBit(a.at(k) != b.at(k))
			}
		case vm.SLT:
			for k := k0; k < k1; k++ {
				dst[k] = boolBit(a.at(k) < b.at(k))
			}
		case vm.SLE:
			for k := k0; k < k1; k++ {
				dst[k] = boolBit(a.at(k) <= b.at(k))
			}
		case vm.MUX:
			cc := c.operand(&op.c)
			for k := k0; k < k1; k++ {
				if a.at(k) != 0 {
					dst[k] = b.at(k)
				} else {
					dst[k] = cc.at(k)
				}
			}
		case vm.LUT:
			for k := k0; k < k1; k++ {
				ix := a.at(k)
				if ix < 0 || ix >= int64(op.rom.Size) {
					if lv[k] {
						return errBatchFault
					}
					dst[k] = 0
					continue
				}
				dst[k] = op.rom.Content[ix]
			}
		default:
			// LPR/SNX live in the cone; anything else is unsupported —
			// the serial replay will produce the proper error.
			return errBatchFault
		}
		wrapLanes(dst[k0:k1], op)
	}
	return nil
}

// The fused lane helpers compute the dominant arithmetic ops with the
// op's single wrap applied in the same pass — one traversal instead of
// a raw pass plus wrapLanes — for the ring×ring and ring×immediate
// operand layouts. A zero-shift wrap spec (64-bit result, wrapNone) is
// the raw loop. The loop bodies live in functions so each stays tight;
// the call overhead is per chunk, not per lane. Every helper masks its
// shift count to 63 (a wrap shift is always below 64) and reslices its
// operands to the destination's length, so the compiler drops both the
// oversized-shift handling and the per-lane bounds checks.

func fusedAdd(d, a, b []int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	a, b = a[:len(d)], b[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] + b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] + b[k]) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]+b[k]) << sh >> sh)
		}
	}
}

func fusedAddImm(d, a []int64, imm int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	a = a[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] + imm
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] + imm) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]+imm) << sh >> sh)
		}
	}
}

func fusedSub(d, a, b []int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	a, b = a[:len(d)], b[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] - b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] - b[k]) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]-b[k]) << sh >> sh)
		}
	}
}

func fusedSubFrom(d []int64, imm int64, b []int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	b = b[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = imm - b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (imm - b[k]) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(imm-b[k]) << sh >> sh)
		}
	}
}

func fusedMul(d, a, b []int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	a, b = a[:len(d)], b[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] * b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] * b[k]) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]*b[k]) << sh >> sh)
		}
	}
}

func fusedMulImm(d, a []int64, imm int64, w wrapSpec) {
	sh := uint(w.sh) & 63
	a = a[:len(d)]
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] * imm
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] * imm) << sh >> sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]*imm) << sh >> sh)
		}
	}
}

func fusedFill(d []int64, v int64, w wrapSpec) {
	v = w.wrap(v)
	for k := range d {
		d[k] = v
	}
}

// wrapLanes applies an op's precompiled wrap mode to its computed lane
// range in one branch-free-per-op pass: nothing, one fused wrap, or the
// full semantic-then-hardware pair (bit-identical to step's
// op.hw.wrap(op.tw.wrap(v)) in every mode — a zero raw value, as a
// poisoned divide leaves behind, wraps to zero in all of them).
//
//roccc:hotpath
func wrapLanes(d []int64, op *cop) {
	switch op.wmode {
	case wrapNone:
	case wrapSingle:
		sh := uint(op.fw.sh) & 63
		if op.fw.signed {
			for i := range d {
				d[i] = d[i] << sh >> sh
			}
		} else {
			for i := range d {
				d[i] = int64(uint64(d[i]) << sh >> sh)
			}
		}
	default:
		tw, hw := op.tw, op.hw
		for i := range d {
			d[i] = hw.wrap(tw.wrap(d[i]))
		}
	}
}

// batchCone runs the feedback cone lane by lane. The running latch
// state lives in batchState (scratch — committed only by commitChunk):
// within a lane, LPRs read it and SNXs stage into it in plan order;
// at the end of the lane the staged writes commit, exactly as the
// serial clock edge commits them — each latch is touched by exactly one
// iteration per cycle, so per-lane order is per-cycle order.
//
//roccc:hotpath
func (s *Sim) batchCone(ops []cop, n int, lanes []int64, lv []bool, laneN int) error {
	p := s.p
	stages := p.stages
	c := laneCtx{lanes: lanes, laneN: laneN, sh: p.opShift}
	st := s.batchState[:len(s.state)]
	copy(st, s.state)
	staged := false
	// Only lanes below stages+n are computable this chunk (laneN can be
	// larger under the threaded backend's fixed stride).
	for k := 0; k < stages+n; k++ {
		for i := range ops {
			op := &ops[i]
			k0 := stages - int(op.stage)
			if k < k0 || k >= k0+n {
				continue // seeded in-flight lane, or a later chunk's cycle
			}
			var v int64
			switch op.opc {
			case vm.LPR:
				// Latches bypass hardware-width wrapping, as in the
				// serial core.
				lanes[(int(op.slot)>>p.opShift)*laneN+k] = st[op.fb]
				continue
			case vm.SNX:
				if lv[k] {
					s.stagedVal[op.fb] = op.tw.wrap(c.get(&op.a, k))
					s.stagedSet[op.fb] = true
					staged = true
				}
				continue
			case vm.LDC, vm.MOV, vm.CVT:
				v = op.tw.wrap(c.get(&op.a, k))
			case vm.ADD:
				v = op.tw.wrap(c.get(&op.a, k) + c.get(&op.b, k))
			case vm.SUB:
				v = op.tw.wrap(c.get(&op.a, k) - c.get(&op.b, k))
			case vm.MUL:
				v = op.tw.wrap(c.get(&op.a, k) * c.get(&op.b, k))
			case vm.DIV:
				b := c.get(&op.b, k)
				if b == 0 {
					if lv[k] {
						return errBatchFault
					}
					v = 0
					break
				}
				v = op.tw.wrap(c.get(&op.a, k) / b)
			case vm.REM:
				b := c.get(&op.b, k)
				if b == 0 {
					if lv[k] {
						return errBatchFault
					}
					v = 0
					break
				}
				v = op.tw.wrap(c.get(&op.a, k) % b)
			case vm.AND:
				v = op.tw.wrap(c.get(&op.a, k) & c.get(&op.b, k))
			case vm.IOR:
				v = op.tw.wrap(c.get(&op.a, k) | c.get(&op.b, k))
			case vm.XOR:
				v = op.tw.wrap(c.get(&op.a, k) ^ c.get(&op.b, k))
			case vm.SHL:
				v = op.tw.wrap(c.get(&op.a, k) << uint(c.get(&op.b, k)&63))
			case vm.SHR:
				a := c.get(&op.a, k)
				sh := uint(c.get(&op.b, k) & 63)
				if op.shrLogical {
					v = op.tw.wrap(int64((uint64(a) & op.shrMask) >> sh))
				} else {
					v = op.tw.wrap(a >> sh)
				}
			case vm.NEG:
				v = op.tw.wrap(-c.get(&op.a, k))
			case vm.NOT:
				v = op.tw.wrap(^c.get(&op.a, k))
			case vm.SEQ:
				v = boolBit(c.get(&op.a, k) == c.get(&op.b, k))
			case vm.SNE:
				v = boolBit(c.get(&op.a, k) != c.get(&op.b, k))
			case vm.SLT:
				v = boolBit(c.get(&op.a, k) < c.get(&op.b, k))
			case vm.SLE:
				v = boolBit(c.get(&op.a, k) <= c.get(&op.b, k))
			case vm.MUX:
				if c.get(&op.a, k) != 0 {
					v = op.tw.wrap(c.get(&op.b, k))
				} else {
					v = op.tw.wrap(c.get(&op.c, k))
				}
			case vm.LUT:
				ix := c.get(&op.a, k)
				if ix < 0 || ix >= int64(op.rom.Size) {
					if lv[k] {
						return errBatchFault
					}
					lanes[(int(op.slot)>>p.opShift)*laneN+k] = 0
					continue
				}
				lanes[(int(op.slot)>>p.opShift)*laneN+k] = op.rom.Content[ix]
				continue
			default:
				return errBatchFault
			}
			lanes[(int(op.slot)>>p.opShift)*laneN+k] = op.hw.wrap(v)
		}
		if staged {
			for i := range s.stagedSet {
				if s.stagedSet[i] {
					s.stagedSet[i] = false
					st[i] = s.stagedVal[i]
				}
			}
			staged = false
		}
	}
	return nil
}

// commitChunk applies a fault-free chunk to the simulator state: ring
// history (the last rdepth cycles of every op and input), valid ring,
// feedback latches, cycle count, head, and the chunk's rows [off,
// off+n) of the column-major output block (column stride stride).
//
//roccc:hotpath
func (s *Sim) commitChunk(n int, valid bool, lanes []int64, laneN int, out []int64, stride, off int) {
	p := s.p
	stages := p.stages
	cycle0 := s.cycle
	rmask := s.rmask
	ring := s.ring
	hNew := (s.head - n) & rmask
	// Cycle cycle0+r lands at ring position (hNew + n-1-r) & rmask; the
	// iteration an op serves at that cycle is lane stages-stage+r. Only
	// the last ringNeed cycles of each region in the commit worklist are
	// written — every future read (serial operand fetch, output
	// alignment, the next chunk's seeding) stays within that depth of
	// the head, so deeper slots can hold stale values without ever being
	// observed.
	for i := range p.commits {
		e := &p.commits[i]
		fi := n - int(e.need)
		if fi < 0 {
			fi = 0
		}
		base := int(e.idx) << p.opShift
		lbase := int(e.idx)*laneN + stages - int(e.st)
		for r := fi; r < n; r++ {
			ring[base+((hNew+n-1-r)&rmask)] = lanes[lbase+r]
		}
	}
	vfirst := 0
	if n > p.rdepth {
		vfirst = n - p.rdepth
	}
	for r := vfirst; r < n; r++ {
		s.validRing[(cycle0+r)&rmask] = valid
	}
	if len(p.batchB) > 0 {
		copy(s.state, s.batchState)
		for i, v := range p.fbVars {
			s.State[v] = s.state[i]
		}
	}
	if valid {
		s.lastValid = cycle0 + n - 1
	}
	// Output row r belongs to the iteration admitted latency cycles
	// before cycle cycle0+r — lane stages-latency+r — so each port's
	// chunk is one contiguous copy out of its defining op's region.
	for i := range p.outSlots {
		o := &p.outSlots[i]
		lbase := (int(o.base)>>p.opShift)*laneN + stages - p.latency
		copy(out[i*stride+off:i*stride+off+n], lanes[lbase:lbase+n])
	}
	s.head = hNew
	s.cycle = cycle0 + n
}
