package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"roccc"
	"roccc/internal/core"
	"roccc/internal/netlist"
	"roccc/internal/synth"
)

// compileRef is one compile-workload kernel with its verification
// reference: a generated input stream and its interpreter outcome for a
// streaming kernel, or a set of interpreted input vectors for a
// combinational one.
type compileRef struct {
	k    *kernelDef
	in   *streamInput
	ex   *expected
	comb *combCase
}

// compileKernelSet is Table 1 plus ci/corpus: the paper's evaluation
// rows and the shapes the repo's static verifier was built around.
func compileKernelSet() ([]*kernelDef, error) {
	t1, err := table1Kernels()
	if err != nil {
		return nil, err
	}
	corpus, err := corpusKernels(corpusDir)
	if err != nil {
		return nil, err
	}
	return append(t1, corpus...), nil
}

// prepareCompile builds every kernel's reference from the seed. It runs
// before set-up and is not timed: it is the benchmark's own work.
func prepareCompile(ks []*kernelDef, seed rng) ([]*compileRef, error) {
	refs := make([]*compileRef, len(ks))
	for i, k := range ks {
		r := seed.fork("compile/" + k.name)
		res, err := compileKernel(k, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		fe, err := parseKernel(k)
		if err != nil {
			return nil, err
		}
		ref := &compileRef{k: k}
		if streaming(res) {
			ref.in = genStreamInput(res, &r)
			if ref.ex, err = referenceStream(fe, res, ref.in); err != nil {
				return nil, fmt.Errorf("%s: %w", k.name, err)
			}
		} else if ref.comb, err = referenceComb(fe, res, &r, 16); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		refs[i] = ref
	}
	return refs, nil
}

// compiledKernel is one pass of a kernel through the whole pipeline.
type compiledKernel struct {
	res    *core.Result
	report *synth.Report
	lines  int
}

// synthesize costs a compiled kernel on the Virtex-II model with the
// row's options, exactly as Table 1 does: LUT multipliers where the
// paper set them, smart buffers and controller for streaming rows.
func synthesize(k *kernelDef, res *core.Result) (*synth.Report, error) {
	opt := synth.Options{LUTMultipliers: k.lutMult}
	if res.Kernel.Nest.Depth() > 0 && len(res.Kernel.Reads) > 0 {
		cfgs, err := synth.KernelBufferConfigs(res.Kernel, k.bus)
		if err != nil {
			return nil, err
		}
		opt.BufferConfigs = cfgs
		opt.ControllerIters = int(res.Kernel.Nest.TotalIterations())
	}
	return synth.Synthesize(res.Datapath, opt), nil
}

// runPipeline takes one kernel from C source to a synthesis report:
// cc → hir → core → dp plan → vhdl → synth.
func runPipeline(k *kernelDef, t *tracer) (*compiledKernel, error) {
	root := t.id()
	start := t.now()
	ck := &compiledKernel{}
	res, err := compileKernel(k, t, root, root)
	if err == nil {
		ck.res = res
		err = t.record("vhdl.emit", root, root, func() error {
			files, err := roccc.GenerateVHDL(res)
			for _, f := range files {
				ck.lines += strings.Count(f.Content, "\n")
			}
			return err
		})
	}
	if err == nil {
		err = t.record("synth", root, root, func() error {
			var err error
			ck.report, err = synthesize(k, res)
			return err
		})
	}
	t.add(span{ID: root, Req: root, Name: "compile.kernel", Start: start, End: t.now()})
	return ck, err
}

// verify checks a freshly compiled kernel against its reference: the
// combinational data path on the interpreted vectors, or the streaming
// kernel on a Fig. 2 System against the interpreter's outputs. It
// returns the simulated cycle count of the stream (0 for combinational
// kernels).
func (ref *compileRef) verify(ck *compiledKernel) (int, error) {
	if ref.comb != nil {
		return 0, ref.comb.check(ck.res.Datapath)
	}
	var job netlist.Job
	if _, err := runSystem(ck.res, ref.k.bus, ref.in, &job); err != nil {
		return 0, err
	}
	return job.Cycles, ref.ex.check(&job)
}

// roundShape is what one compile round must reproduce exactly: the
// Table 1 ratios and the deterministic per-layer counts.
type roundShape struct {
	areaRatio, clockRatio float64
	ops, stages, lines    int
	cycles                int
	slices                map[string]int
	clockMHz              map[string]float64
}

func (a *roundShape) diff(b *roundShape) string {
	if a.areaRatio != b.areaRatio || a.clockRatio != b.clockRatio {
		return fmt.Sprintf("Table 1 ratios %v/%v vs %v/%v", a.areaRatio, a.clockRatio, b.areaRatio, b.clockRatio)
	}
	if a.ops != b.ops || a.stages != b.stages || a.lines != b.lines || a.cycles != b.cycles {
		return fmt.Sprintf("ops/stages/lines/cycles %d/%d/%d/%d vs %d/%d/%d/%d",
			a.ops, a.stages, a.lines, a.cycles, b.ops, b.stages, b.lines, b.cycles)
	}
	for row, s := range a.slices {
		if b.slices[row] != s || b.clockMHz[row] != a.clockMHz[row] {
			return fmt.Sprintf("row %s synthesis %d/%v vs %d/%v", row, s, a.clockMHz[row], b.slices[row], b.clockMHz[row])
		}
	}
	return ""
}

// compileRound compiles every kernel once, in an order drawn from r,
// timing only the pipeline and verifying each result outside the timed
// region. A non-nil p samples the machine's speed after each kernel,
// also outside the timed region. It returns the timed seconds, the round's shape, the kernels
// that failed to compile and those whose compiled circuit disagreed
// with the reference.
func compileRound(refs []*compileRef, r *rng, t *tracer, p *prober) (secs float64, shape *roundShape, fails, wrong []string) {
	shape = &roundShape{slices: map[string]int{}, clockMHz: map[string]float64{}}
	areas, clocks := make([]float64, len(refs)), make([]float64, len(refs))
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, i := range order {
		ref := refs[i]
		t0 := time.Now()
		ck, err := runPipeline(ref.k, t)
		secs += time.Since(t0).Seconds()
		p.sample()
		if err != nil {
			fails = append(fails, err.Error())
			continue
		}
		cycles, err := ref.verify(ck)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("%s: %v", ref.k.name, err))
			continue
		}
		shape.ops += ck.res.Datapath.NumOps()
		shape.stages += ck.res.Datapath.Stages
		shape.lines += ck.lines
		shape.cycles += cycles
		if ref.k.table1 {
			shape.slices[ref.k.name] = ck.report.Slices
			shape.clockMHz[ref.k.name] = ck.report.ClockMHz
			// The LUT rows instantiate the same ROM IP on both sides and
			// are 1.00 by construction; like the paper's summary, the
			// geometric means cover the other seven rows.
			if ref.k.name != "cos" && ref.k.name != "arbitrary_lut" {
				areas[i] = float64(ck.report.Slices) / float64(ref.k.ipReport.Slices)
				clocks[i] = ck.report.ClockMHz / ref.k.ipReport.ClockMHz
			}
		}
	}
	// Summed in row order, not compile order, so every round's ratios
	// are bit-identical.
	shape.areaRatio, shape.clockRatio = geomean(nonZero(areas)), geomean(nonZero(clocks))
	return secs, shape, fails, wrong
}

// runCompile is the compile workload: a closed loop in one goroutine
// compiling Table 1 plus ci/corpus from C source to synthesis reports.
func runCompile(o *options) (*result, error) {
	seed := rng(o.seed)
	ks, err := compileKernelSet()
	if err != nil {
		return nil, err
	}
	refs, err := prepareCompile(ks, seed)
	if err != nil {
		return nil, err
	}
	nk := len(refs)
	shuffle := seed.fork("compile/order")

	// Set-up: load the kernel set (Table 1 sources, IP baselines, the
	// corpus) and warm up with one full round, as a fresh process would
	// before compiling anything in earnest. Repeated; the median counts.
	res := newResult()
	for range setupReps {
		if err := res.setUp(func() error {
			if _, err := compileKernelSet(); err != nil {
				return err
			}
			if _, _, fails, wrong := compileRound(refs, &shuffle, nil, nil); len(fails)+len(wrong) > 0 {
				return fmt.Errorf("warm-up: %s", strings.Join(append(fails, wrong...), "; "))
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	var first *roundShape
	var raw []float64
	p := newProber()
	phase := func(d time.Duration, t *tracer) []float64 {
		var rates []float64
		for end := time.Now().Add(d); time.Now().Before(end); {
			secs, shape, fails, wrong := compileRound(refs, &shuffle, t, p)
			slow := p.take()
			res.attempt(int64(nk), int64(len(fails)+len(wrong)), fails...)
			for _, w := range wrong {
				res.mismatch(w)
			}
			if len(fails)+len(wrong) > 0 {
				continue
			}
			if first == nil {
				first = shape
			} else if d := first.diff(shape); d != "" {
				res.mismatch("compile round did not repeat: " + d)
			}
			raw = append(raw, float64(nk)/secs)
			rates = append(rates, float64(nk)/secs*slow)
		}
		return rates
	}

	if o.trace {
		half := o.duration / 2
		plain := phase(half, nil)
		t := newTracer()
		traced := phase(half, t)
		if len(plain) == 0 || len(traced) == 0 || first == nil {
			return nil, fmt.Errorf("no compile round completed")
		}
		compileSpans := t.snapshot()
		res.layerTimes(indexSpans(compileSpans), nk)
		allocs, bytes, err := coreAllocs(ks)
		if err != nil {
			return nil, err
		}
		res.layer("core.allocs_per_kernel", allocs, "count")
		res.layer("core.bytes_per_kernel", bytes, "B")
		res.layer("dp.ops", float64(first.ops), "count")
		res.layer("dp.stages", float64(first.stages), "count")
		res.layer("vhdl.lines", float64(first.lines), "count")
		res.quality(first, true)
		res.layer("trace.overhead_frac", 1-median(traced)/median(plain), "ratio")
		if err := res.serveReplay(seed, ks, t); err != nil {
			return nil, err
		}
		for _, s := range compileSpans {
			t.add(s)
		}
		if err := t.write(o.tracePath()); err != nil {
			return nil, err
		}
		return res, nil
	}

	rates := phase(o.duration, nil)
	if len(rates) == 0 || first == nil {
		return nil, fmt.Errorf("no compile round completed")
	}
	s := summarize(append([]float64(nil), rates...))
	res.note("ops_per_s: kernels/s (conditioned) over %d rounds of %d kernels: %s", len(rates), nk, s)
	res.note("unconditioned kernels/s: %s", summarize(raw))
	res.e2e("ops_per_s", s.Median, "1/s")
	res.quality(first, false)
	res.setup()
	return res, nil
}

// quality reports the paper's Table 1 figures of a compile round: the
// ROCCC/IP geometric means end to end, the per-row slices and clock
// per layer.
func (r *result) quality(s *roundShape, traced bool) {
	if !traced {
		r.e2e("area_ratio_geomean", s.areaRatio, "ratio")
		r.e2e("clock_ratio_geomean", s.clockRatio, "ratio")
		return
	}
	for row, n := range s.slices {
		r.layer("synth.slices."+row, float64(n), "slices")
		r.layer("synth.clock_mhz."+row, s.clockMHz[row], "MHz")
	}
}

// table1Quality compiles Table 1 twice through the whole pipeline,
// verifying every kernel like a compile round and checking that the
// second round repeats the first, and reports its quality figures. The
// serve workloads call it after their measured phases: circuit quality
// belongs to the compiler under test, whatever the load.
func (r *result) table1Quality(seed rng, traced bool) error {
	t1, err := table1Kernels()
	if err != nil {
		return err
	}
	refs, err := prepareCompile(t1, seed)
	if err != nil {
		return err
	}
	order := seed.fork("table1/order")
	var first *roundShape
	for range 2 {
		_, shape, fails, wrong := compileRound(refs, &order, nil, nil)
		if len(fails)+len(wrong) > 0 {
			return fmt.Errorf("Table 1: %s", strings.Join(append(fails, wrong...), "; "))
		}
		r.attempt(int64(len(refs)), 0)
		if first == nil {
			first = shape
		} else if d := first.diff(shape); d != "" {
			r.mismatch("Table 1 round did not repeat: " + d)
		}
	}
	r.quality(first, traced)
	return nil
}

// layerTimes derives the compile-layer timings from a traced phase:
// per-kernel µs for every layer span under compile.kernel.
func (r *result) layerTimes(ix spanIndex, nk int) {
	for _, l := range []struct{ span, metric string }{
		{"cc.parse", "cc.parse_us"},
		{"hir.build", "hir.build_us"},
		{"core.compile", "core.compile_us"},
		{"dp.plan", "dp.plan_us"},
		{"vhdl.emit", "vhdl.emit_us"},
		{"synth", "synth.us"},
	} {
		if len(ix.byName[l.span]) == 0 {
			continue
		}
		s := summarize(ix.durationsUs(l.span))
		r.note("%s per kernel (%d kernels): %s", l.metric, nk, s)
		r.layer(l.metric, s.Median, "us")
	}
}

// coreAllocs measures the heap allocations of core.Compile alone (the
// middle and back end), averaged over one pass of the kernel set.
func coreAllocs(ks []*kernelDef) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	var n, b uint64
	for _, k := range ks {
		fe, err := parseKernel(k)
		if err != nil {
			return 0, 0, err
		}
		prog, err := hirBuild(fe)
		if err != nil {
			return 0, 0, err
		}
		f := prog.Func(k.fn)
		runtime.ReadMemStats(&before)
		_, err = core.Compile(prog, f, k.opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		n += after.Mallocs - before.Mallocs
		b += after.TotalAlloc - before.TotalAlloc
	}
	return float64(n) / float64(len(ks)), float64(b) / float64(len(ks)), nil
}

func nonZero(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}
