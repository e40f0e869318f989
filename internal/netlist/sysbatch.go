package netlist

import "fmt"

// sysbatch.go is the streak-batched dispatch path of System.Run. The
// serial loop in system.go interleaves the memory stage, smart-buffer
// windowing and the pipelined data path one clock at a time. Most of a
// healthy run, though, is a streak: a run of consecutive cycles in
// which every read port is WindowReady and the controller feeds one
// iteration per clock. Within a streak both ends of the data path are
// affine in the iteration (§4.1, Fig. 2): window i of a row strip
// starts stride·i elements after window 0, and iteration i's results
// land stride·i addresses after iteration 0's. So Run executes a streak
// as bulk column moves around one batched data-path dispatch:
//
//  1. the predictor (feedStreak, built on smartbuf.FeedStreak) proves
//     that the next k cycles all feed — an O(1) query per read port;
//  2. feed: each data-path input column is gathered straight from its
//     read BRAM (streaming index equals BRAM address, and read BRAMs are
//     never written during Run) — one contiguous copy for a unit-stride
//     tap — while IV and scalar columns are filled in runs;
//  3. one StepN call executes all k clocks on the column-major block;
//  4. harvest: each output column is written into its write BRAM with
//     one strided loop per write run (ctrl.WriteGen.NextRun), and the
//     BRAM and controller counters advance by the run length;
//  5. the smart buffers, read generators and read-BRAM counters advance
//     across the k cycles in closed form (smartbuf.AdvanceFeed), with
//     the newly fetched elements bulk-copied into each ring — exactly
//     the state the per-cycle memory stage and window pops would leave.
//
// Proven stalls (fill, a 2-D sweep waiting on its next row strip) and
// the final pipeline flush run the same way through DrainN and
// smartbuf.AdvanceFill; DrainN itself skips bubble clocks once the
// pipeline is empty (dp.Sim.DrainN).
//
// Faults keep the chunk-with-serial-replay contract end to end: StepN
// and DrainN replay a faulting chunk through the serial core, so the
// abort cycle, the *dp.FaultError and the post-abort simulator state
// are Step's exactly; the system then harvests and advances its memory
// side only through the cycles the serial loop would have run, and
// stops its clock on the same cycle. Anything the predictors cannot
// prove falls back to the serial per-cycle path.

const (
	// sysChunkMax bounds one streak chunk, and with it the input staging
	// block (len(Datapath.Inputs) columns of up to sysChunkMax values).
	// StepN chunks its own lane scratch internally, so larger streaks
	// gain little beyond amortizing the per-chunk bookkeeping here.
	sysChunkMax = 256
	// sysBatchMin is the shortest streak worth dispatching through
	// StepN: below it the serial path's per-cycle dispatch is cheaper
	// than staging columns (StepN itself falls back to the serial core
	// for tiny chunks anyway).
	sysBatchMin = 4
)

// stallStreak is the bubble-streak predictor: when at least one read
// port's window is not ready, it returns the exact number of
// consecutive cycles the system stalls (pipeline bubbles) before every
// port is ready again — the max over the ports' O(1) fill counts, since
// ports fill independently and feeding resumes only when all are ready.
// Zero when nothing is stalled (all ready, or the run is draining).
func (s *System) stallStreak() int {
	m := 0
	for _, buf := range s.buffers {
		if st := buf.StallStreak(); st > m {
			m = st
		}
	}
	return m
}

// feedStreak is the streak predictor: the number of consecutive cycles,
// starting with the current one (whose memory stage has already run),
// for which every read port is provably WindowReady and the controller
// has iterations left to feed — so every one of them is a feed cycle in
// the serial schedule. The bound is a safe underestimate: a shorter
// streak only splits the batch, it never diverges from the serial
// cycle-for-cycle behavior. Kernels with no read arrays (pure
// scalar/feedback nests like mul_acc) are limited by the iteration
// space alone.
func (s *System) feedStreak() int {
	k := min(s.plan.total-s.ctl.Fed(), s.plan.streakMax)
	if k < sysBatchMin {
		return 0
	}
	for _, buf := range s.buffers {
		if k = buf.FeedStreak(k); k == 0 {
			return 0
		}
	}
	return k
}

// Chunk kinds: how the serial loop runs a batched chunk's cycles.
const (
	feedChunk  = iota // every cycle pops a window; cycle 0's memory stage already ran
	stallChunk        // no pops; cycle 0's memory stage already ran
	drainChunk        // no pops; every cycle runs the memory stage
)

// runStreak executes k guaranteed feed cycles (cycle 0's memory stage
// has already run — the predictor needed it), returning the updated
// harvest count.
//
//roccc:hotpath
func (s *System) runStreak(k, harvested int) (int, error) {
	c0 := s.cycles
	s.snapFedPre(min(s.plan.latency, k))
	// One FSM transition admits the whole streak — exactly k Tick(true)
	// calls that all feed (the predictor capped k at the remaining
	// iteration count).
	if !s.ctl.TickFeedN(k) {
		return harvested, fmt.Errorf("netlist: internal: controller refused predicted %d-cycle streak at cycle %d", k, c0)
	}
	stage := s.stage[:k*len(s.inputs)]
	s.gatherColumns(stage, k)
	// Mark the whole streak fed: k consecutive true entries, which is
	// the entire ring once k wraps it.
	for i := 0; i < min(k, s.fedMask+1); i++ {
		s.fedRing[(c0+i)&s.fedMask] = true
	}
	outs, err := s.sim.StepN(stage, k)
	return s.finish(outs, k, harvested, feedChunk, err)
}

// runStall executes m guaranteed bubble cycles in one DrainN dispatch —
// the fill phase and mid-run window stalls (e.g. a 2-D sweep waiting
// for the next row strip). In-flight valid iterations exiting during
// the stall harvest from DrainN's output columns (rows at or past the
// latency horizon exit bubbles admitted inside this same stall — never
// harvested).
//
//roccc:hotpath
func (s *System) runStall(m, harvested int) (int, error) {
	c0 := s.cycles
	s.snapFedPre(min(s.plan.latency, m))
	for i := 0; i < min(m, s.fedMask+1); i++ {
		s.fedRing[(c0+m-1-i)&s.fedMask] = false
	}
	outs, err := s.sim.DrainN(m)
	return s.finish(outs, m, harvested, stallChunk, err)
}

// drainTail flushes the pipeline after the final feed cycle in one
// DrainN dispatch: exactly latency drain clocks remain, after which
// every in-flight iteration has exited — the same cycle count on which
// the serial loop completes. The memory stage still runs on every drain
// cycle (trailing array elements the window sweep never referenced keep
// streaming in, preserving fetch pacing and the fetch-once property);
// window state is static, so running it in bulk is order-equivalent.
//
//roccc:hotpath
func (s *System) drainTail(harvested int) (int, error) {
	lat := s.plan.latency
	s.snapFedPre(lat)
	outs, err := s.sim.DrainN(lat)
	return s.finish(outs, lat, harvested, drainChunk, err)
}

// snapFedPre snapshots the fed bits of the n iterations exiting during
// a chunk's first n cycles (admitted before the chunk): the chunk's own
// fedRing writes may wrap over them before the harvest runs.
//
//roccc:hotpath
func (s *System) snapFedPre(n int) {
	c0, lat := s.cycles, s.plan.latency
	for i := 0; i < n; i++ {
		e := c0 + i - lat
		s.fedPre[i] = e >= 0 && s.fedRing[e&s.fedMask]
	}
}

// finish completes an n-cycle chunk of the given kind after its
// StepN/DrainN dispatch returned outs and err. It stops where the serial
// loop would have: on the cycle a data-path fault aborts (StepN/DrainN
// commit every row before it), or earlier on a cycle whose harvest
// store fails — the serial loop harvests a cycle before clocking the
// next. It harvests the output block (column stride n) up to there,
// advances the read side through exactly the memory stages and pops
// the serial loop would have run, and stops the system clock on that
// cycle; a completed chunk counts as batched.
//
//roccc:hotpath
func (s *System) finish(outs []int64, n, harvested, kind int, err error) (int, error) {
	c0 := s.cycles
	end := n
	if err != nil {
		end = s.sim.Cycle() - c0
	}
	harvested, row, herr := s.harvestBlock(outs, n, end, kind == feedChunk, harvested)
	if herr != nil {
		end, err = row, herr
	}
	entered := min(end+1, n) // cycles 0..end, or all n
	var aerr error
	switch kind {
	case feedChunk:
		aerr = s.advanceReads(entered, true)
	case stallChunk:
		aerr = s.advanceReads(entered-1, false)
	default:
		aerr = s.advanceReads(entered, false)
	}
	if err == nil {
		err = aerr
	}
	if err != nil {
		s.cycles = c0 + end
		return harvested, err
	}
	s.cycles = c0 + n
	s.batched += n
	return harvested, nil
}

// gatherColumns fills the column-major input block of a k-cycle feed
// streak: window-tap columns straight from the read BRAMs, IV columns
// off the odometer (which it advances k iterations), scalar columns
// constant. Columns no route covers are zeroed iff plan.needClear.
//
//roccc:hotpath
func (s *System) gatherColumns(stage []int64, k int) {
	p := s.plan
	if p.needClear {
		clear(stage)
	}
	for bi := range p.reads {
		rp := &p.reads[bi]
		src := s.readBRAMs[bi].Data
		base := s.buffers[bi].WindowBase()
		for _, tc := range rp.cols {
			col := stage[tc.in*k : (tc.in+1)*k]
			from := base + tc.off
			if rp.stride == 1 {
				copy(col, src[from:from+k])
				continue
			}
			for i := range col {
				col[i] = src[from+i*rp.stride]
			}
		}
	}
	if len(p.ivs) > 0 {
		s.ivColumns(stage, k)
	}
	for si, ix := range p.scalarIn {
		if ix >= 0 {
			col := stage[ix*k : (ix+1)*k]
			v := s.scalarVals[si]
			for i := range col {
				col[i] = v
			}
		}
	}
}

// ivColumns fills the induction-variable columns of k feed cycles one
// innermost row at a time — within a row the innermost IV is an
// arithmetic sequence and the outer ones are constant — and advances
// the odometer past them.
//
//roccc:hotpath
func (s *System) ivColumns(stage []int64, k int) {
	p := s.plan
	last := len(s.iter) - 1
	for done := 0; done < k; {
		run := min(k-done, int(p.trips[last]-s.iter[last]))
		for _, iv := range p.ivs {
			col := stage[iv.in*k+done : iv.in*k+done+run]
			v := p.from[iv.level] + s.iter[iv.level]*p.step[iv.level]
			step := int64(0)
			if iv.level == last {
				step = p.step[last]
			}
			for i := range col {
				col[i] = v
				v += step
			}
		}
		s.advanceOdometer(run)
		done += run
	}
}

// harvestBlock harvests the exiting iterations among the first rows
// rows of an n-cycle output block (column stride n). Row i exits the
// iteration admitted lat cycles before it: a valid one iff fedPre[i]
// (admitted before the chunk), or — in a feed chunk — i >= lat (one of
// the chunk's own admissions; a stall's later rows exit its own
// bubbles). Consecutive exits harvest as one run. It returns the
// updated count and, on a write failure, the row it failed on.
//
//roccc:hotpath
func (s *System) harvestBlock(outs []int64, n, rows int, feed bool, harvested int) (int, int, error) {
	lat := s.plan.latency
	exits := func(i int) bool {
		if i < lat {
			return s.fedPre[i]
		}
		return feed
	}
	for i := 0; i < rows; {
		if !exits(i) {
			i++
			continue
		}
		j := i + 1
		for j < rows && exits(j) {
			j++
		}
		done, err := s.harvestRun(outs, n, i, j-i)
		harvested += done
		if err != nil {
			return harvested, i + done, err
		}
		i = j
	}
	return harvested, rows, nil
}

// harvestRun writes output rows [r0, r0+cnt) — consecutive exiting
// iterations — into the write BRAMs: per write run (all generators
// share the nest, so they agree on where innermost rows end), one
// strided column write per write element, then one bulk controller
// collect. It returns how many rows completed.
//
//roccc:hotpath
func (s *System) harvestRun(outs []int64, n, r0, cnt int) (int, error) {
	p := s.plan
	for done := 0; done < cnt; {
		run := cnt - done
		for wi := range p.writes {
			run = min(run, p.writes[wi].runMax)
		}
		// A store out of range replays the run iteration by iteration in
		// the serial store order, so the failing store — and every store
		// before it — match the serial harvest.
		inRange := true
		for wi, g := range s.writeGens {
			bases, m := g.NextRun(s.writeAddrs[wi], run)
			if bases == nil {
				return done, fmt.Errorf("netlist: write generator exhausted early")
			}
			if wi > 0 && m != run {
				return done, fmt.Errorf("netlist: internal: write generators disagree on a run (%d vs %d iterations)", m, run)
			}
			run = m
			for _, a := range bases {
				inRange = inRange && s.writeBRAMs[wi].spanInRange(a, p.writes[wi].stride, run)
			}
		}
		row := r0 + done
		if !inRange {
			for t := 0; t < run; t++ {
				for wi := range p.writes {
					wp := &p.writes[wi]
					for e, a := range s.writeAddrs[wi] {
						if err := s.writeBRAMs[wi].Write(a+t*wp.stride, outs[wp.outIdx[e]*n+row+t]); err != nil {
							return done + t, err
						}
					}
				}
				s.ctl.Collect()
			}
			done += run
			continue
		}
		for wi := range p.writes {
			wp := &p.writes[wi]
			bram := s.writeBRAMs[wi]
			for e, a := range s.writeAddrs[wi] {
				col := outs[wp.outIdx[e]*n+row : wp.outIdx[e]*n+row+run]
				if err := bram.WriteStrided(a, wp.stride, col); err != nil {
					return done, err
				}
			}
		}
		s.ctl.CollectN(run)
		done += run
	}
	return cnt, nil
}

// advanceReads advances every read port across cycles feed cycles (or,
// with feed unset, pop-free memory-stage cycles) in bulk: the smart
// buffer's counters and ring, the read generator and the read BRAM's
// access count all move by exactly the elements the serial memory stage
// would have fetched over those cycles.
//
//roccc:hotpath
func (s *System) advanceReads(cycles int, feed bool) error {
	for i, buf := range s.buffers {
		bram := s.readBRAMs[i]
		var n int
		if feed {
			var err error
			if n, err = buf.AdvanceFeed(cycles, bram.Data); err != nil {
				return fmt.Errorf("netlist: internal: streak predictor overran window readiness at cycle %d: %w", s.cycles, err)
			}
		} else {
			n = buf.AdvanceFill(cycles, bram.Data)
		}
		if _, err := bram.ReadRange(s.readGens[i].Advance(n), n); err != nil {
			return err
		}
	}
	streakVerifyHook(s)
	return nil
}
