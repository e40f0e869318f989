package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"roccc/internal/bench"
	"roccc/internal/cc"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/ip"
	"roccc/internal/netlist"
	"roccc/internal/serve"
	"roccc/internal/synth"
)

// kernelDef is one kernel the benchmark compiles or serves: its C
// source and compile options, plus, for Table 1 rows, the synthesis
// options the paper used and the Xilinx IP core it is compared with.
type kernelDef struct {
	name     string
	src      string
	fn       string
	opt      core.Options
	bus      int
	halfWave []string
	lutMult  bool
	table1   bool
	ipReport *synth.Report
}

// spec adapts the kernel to a servable spec. Config.Backend stays unset,
// so the serving stack's default backend executes it.
func (k *kernelDef) spec() serve.KernelSpec {
	return serve.KernelSpec{
		Name: k.name, Source: k.src, Func: k.fn, Options: k.opt,
		Config: netlist.Config{BusElems: k.bus},
	}
}

// table1Kernels returns the paper's nine Table 1 rows with their IP
// baselines.
func table1Kernels() ([]*kernelDef, error) {
	ks, cores := bench.All(), ip.All()
	if len(ks) != len(cores) {
		return nil, fmt.Errorf("table 1: %d kernels vs %d IP cores", len(ks), len(cores))
	}
	out := make([]*kernelDef, len(ks))
	for i, k := range ks {
		if cores[i].Name != k.Name {
			return nil, fmt.Errorf("table 1 row %d: kernel %s vs IP core %s", i, k.Name, cores[i].Name)
		}
		out[i] = &kernelDef{
			name: k.Name, src: k.Source, fn: k.Func, opt: k.Options, bus: k.BusElems,
			halfWave: k.HalfWaveRoms, lutMult: k.LUTMultStyle, table1: true,
			ipReport: cores[i].Report,
		}
	}
	return out, nil
}

// corpusKernels loads every ci/corpus kernel (function k, default
// options, one-element bus).
func corpusKernels(dir string) ([]*kernelDef, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no kernels in %s (run from the repository root)", dir)
	}
	sort.Strings(files)
	out := make([]*kernelDef, 0, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, &kernelDef{
			name: "corpus_" + strings.TrimSuffix(filepath.Base(f), ".c"),
			src:  string(src), fn: "k", opt: core.DefaultOptions(), bus: 1,
		})
	}
	return out, nil
}

// fir4kSource is the 4096-sample FIR: the steady-state streaming shape
// one long request carries.
const fir4kSource = `
int A[4100];
int C[4096];
void fir() {
	int i;
	for (i = 0; i < 4096; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

// divideSource is the fault-capable kernel: an elementwise divide. A
// zero divisor on a valid iteration aborts the run with a typed
// *dp.FaultError at a deterministic cycle.
const divideSource = `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`

// longStreamKernels is the stream-bulk kernel set: the 4096-sample FIR,
// Table 1's DCT body over 4096 samples (512 blocks) and Table 1's 32x32
// wavelet.
func longStreamKernels() ([]*kernelDef, error) {
	d := bench.DCT()
	src := d.Source
	for _, r := range [][2]string{{"[64]", "[4096]"}, {"i < 64", "i < 4096"}} {
		if strings.Count(src, r[0]) == 0 {
			return nil, fmt.Errorf("dct4k: Table 1 DCT source has no %q", r[0])
		}
		src = strings.ReplaceAll(src, r[0], r[1])
	}
	w := bench.Wavelet()
	return []*kernelDef{
		{name: "fir4k", src: fir4kSource, fn: "fir", opt: core.DefaultOptions(), bus: 1},
		{name: "dct4k", src: src, fn: d.Func, opt: d.Options, bus: d.BusElems},
		{name: "wavelet", src: w.Source, fn: w.Func, opt: w.Options, bus: w.BusElems},
	}, nil
}

// divideKernel is the planted-fault kernel definition.
func divideKernel() *kernelDef {
	return &kernelDef{name: "divide", src: divideSource, fn: "divide", opt: core.DefaultOptions(), bus: 1}
}

// frontEnd is the C front end's output for one kernel source: what the
// interpreter reference runs on.
type frontEnd struct {
	info *cc.Info
	fn   *cc.FuncDecl
}

func parseKernel(k *kernelDef) (*frontEnd, error) {
	f, err := cc.Parse(k.src)
	if err != nil {
		return nil, err
	}
	info, err := cc.Analyze(f)
	if err != nil {
		return nil, err
	}
	fn := info.Funcs[k.fn]
	if fn == nil {
		return nil, fmt.Errorf("%s: no function %q", k.name, k.fn)
	}
	return &frontEnd{info: info, fn: fn}, nil
}

// compileKernel runs the whole front end and compiler on k, recording a
// span per layer under parent when t is non-nil: cc (parse + semantic
// analysis), hir (HIR construction), core (optimization, kernel
// extraction, SUIFvm/CFG/SSA, data-path build and latch placement —
// for Table 1 rows against the row's synthesis delay model, as the
// paper's flow does) and dp (the simulator execution plan).
func compileKernel(k *kernelDef, t *tracer, req, parent uint64) (*core.Result, error) {
	var (
		info *cc.Info
		prog *hir.Program
		res  *core.Result
	)
	err := t.record("cc.parse", req, parent, func() error {
		f, err := cc.Parse(k.src)
		if err != nil {
			return err
		}
		info, err = cc.Analyze(f)
		return err
	})
	if err == nil {
		err = t.record("hir.build", req, parent, func() error {
			var err error
			prog, err = hir.Build(info)
			return err
		})
	}
	if err == nil {
		err = t.record("core.compile", req, parent, func() error {
			f := prog.Func(k.fn)
			if f == nil {
				return fmt.Errorf("no kernel function %q", k.fn)
			}
			var err error
			if res, err = core.Compile(prog, f, k.opt); err != nil {
				return err
			}
			for _, name := range k.halfWave {
				for _, r := range res.Kernel.Roms {
					if r.Name == name {
						r.Half = true
					}
				}
			}
			if k.table1 {
				return dp.Pipeline(res.Datapath, dp.PipelineConfig{
					Period: k.opt.PeriodNs,
					Delay:  synth.OpDelay(res.Datapath, k.lutMult),
				})
			}
			return nil
		})
	}
	if err == nil {
		err = t.record("dp.plan", req, parent, func() error {
			dp.NewSim(res.Datapath)
			return nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	return res, nil
}

func hirBuild(fe *frontEnd) (*hir.Program, error) { return hir.Build(fe.info) }

// streaming reports whether a compiled kernel runs on the Fig. 2 system
// (a loop nest); the rest are combinational data paths.
func streaming(res *core.Result) bool { return res.Kernel.Nest.Depth() > 0 }

// servable reports whether the serving stack accepts the kernel: a loop
// nest fed from input arrays, with no per-kernel scalar parameters.
func servable(res *core.Result) bool {
	return streaming(res) && len(res.Kernel.Reads) > 0 && len(res.Kernel.ScalarParams) == 0
}

// inputValue draws a value of type t the way the repo's own simulator
// checks do: non-negative, at most 16 bits wide before wrapping.
func inputValue(r *rng, t cc.IntType) int64 {
	return t.Wrap(int64(r.next() % (1 << uint(min(t.Bits, 16)))))
}

// streamInput is one generated input for a streaming kernel: the read
// arrays plus any kernel-level scalars.
type streamInput struct {
	arrays  map[string][]int64
	scalars map[string]int64
}

// elems counts the input elements the stream carries.
func (in *streamInput) elems() int {
	n := 0
	for _, v := range in.arrays {
		n += len(v)
	}
	return n
}

// genStreamInput draws one input for a streaming kernel from r.
func genStreamInput(res *core.Result, r *rng) *streamInput {
	in := &streamInput{arrays: map[string][]int64{}, scalars: map[string]int64{}}
	for _, w := range res.Kernel.Reads {
		vals := make([]int64, w.Arr.Len())
		for i := range vals {
			vals[i] = inputValue(r, w.Arr.Elem)
		}
		in.arrays[w.Arr.Name] = vals
	}
	for _, p := range res.Kernel.ScalarParams {
		in.scalars[p.Name] = inputValue(r, p.Type)
	}
	return in
}

// expected is the reference outcome of one stream: output arrays and
// feedback latch values from the C interpreter, or — for a planted
// fault — the typed fault a serial interp System.Run raises.
type expected struct {
	outputs   map[string][]int64
	feedbacks map[string]int64
	fault     *dp.FaultError
}

// interpArgs orders scalar values as fn's non-output parameters.
func interpArgs(fn *cc.FuncDecl, vals map[string]int64) ([]int64, error) {
	var args []int64
	for _, p := range fn.Params {
		if p.IsOutput() {
			continue
		}
		if _, isArr := p.Type.(cc.ArrayType); isArr {
			continue
		}
		v, ok := vals[p.Name]
		if !ok {
			return nil, fmt.Errorf("no value for parameter %q", p.Name)
		}
		args = append(args, v)
	}
	return args, nil
}

// referenceStream computes a streaming kernel's reference outcome with
// the C interpreter, which shares no code with the compiler or the
// simulators.
func referenceStream(fe *frontEnd, res *core.Result, in *streamInput) (*expected, error) {
	ipr := cc.NewInterp(fe.info)
	for name, vals := range in.arrays {
		ipr.SetArray(name, vals)
	}
	args, err := interpArgs(fe.fn, in.scalars)
	if err != nil {
		return nil, err
	}
	if _, _, err := ipr.Call(fe.fn.Name, args...); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	ex := &expected{outputs: map[string][]int64{}, feedbacks: map[string]int64{}}
	for _, w := range res.Kernel.Writes {
		ex.outputs[w.Arr.Name] = slices.Clone(ipr.Arrays[w.Arr.Name])
	}
	for _, fb := range res.Datapath.Feedbacks {
		v, ok := ipr.Globals[fb.State.Name]
		if !ok {
			return nil, fmt.Errorf("feedback %q is not a global the interpreter exposes", fb.State.Name)
		}
		ex.feedbacks[fb.State.Name] = v
	}
	return ex, nil
}

// referenceFault computes a planted fault's reference: the interpreter
// must reject the input (so the fault is real C semantics), and the
// abort cycle and op come from a serial System.Run on the interp
// backend.
func referenceFault(fe *frontEnd, res *core.Result, k *kernelDef, in *streamInput) (*expected, error) {
	ipr := cc.NewInterp(fe.info)
	for name, vals := range in.arrays {
		ipr.SetArray(name, vals)
	}
	if _, _, err := ipr.Call(fe.fn.Name); err == nil {
		return nil, fmt.Errorf("%s: planted fault input runs cleanly in the interpreter", k.name)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{
		BusElems: k.bus, Serial: true, Backend: dp.BackendInterp,
	})
	if err != nil {
		return nil, err
	}
	for name, vals := range in.arrays {
		if err := sys.LoadInput(name, vals); err != nil {
			return nil, err
		}
	}
	_, err = sys.Run()
	var fe2 *dp.FaultError
	if !errors.As(err, &fe2) {
		return nil, fmt.Errorf("%s: serial run of the planted fault returned %v, want a *dp.FaultError", k.name, err)
	}
	return &expected{fault: fe2}, nil
}

// check compares one served or simulated stream against its reference.
func (ex *expected) check(job *netlist.Job) error {
	if ex.fault != nil {
		var fe *dp.FaultError
		if !errors.As(job.Err, &fe) {
			return fmt.Errorf("want fault %q at cycle %d, got %v", ex.fault.Op, ex.fault.Cycle, job.Err)
		}
		if fe.Cycle != ex.fault.Cycle || fe.Op != ex.fault.Op {
			return fmt.Errorf("fault %q at cycle %d, want %q at cycle %d", fe.Op, fe.Cycle, ex.fault.Op, ex.fault.Cycle)
		}
		return nil
	}
	if job.Err != nil {
		return job.Err
	}
	if len(job.Outputs) != len(ex.outputs) {
		return fmt.Errorf("%d output arrays, want %d", len(job.Outputs), len(ex.outputs))
	}
	for name, want := range ex.outputs {
		got, ok := job.Outputs[name]
		if !ok {
			return fmt.Errorf("missing output %q", name)
		}
		if len(got) != len(want) {
			return fmt.Errorf("output %q has %d elements, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	for name, want := range ex.feedbacks {
		if got, ok := job.Feedbacks[name]; !ok || got != want {
			return fmt.Errorf("feedback %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	return nil
}

// combCase is a set of input vectors for a combinational kernel with
// the interpreter's answers, in data-path port order.
type combCase struct {
	inputs [][]int64
	want   [][]int64
}

// referenceComb draws n input vectors for a combinational data path and
// evaluates each with the interpreter.
func referenceComb(fe *frontEnd, res *core.Result, r *rng, n int) (*combCase, error) {
	d := res.Datapath
	outIdx := map[string]int{}
	j := 0
	for _, p := range fe.fn.Params {
		if p.IsOutput() {
			outIdx[p.Name] = j
			j++
		}
	}
	cs := &combCase{}
	for range n {
		vec := make([]int64, len(d.Inputs))
		vals := map[string]int64{}
		for i, p := range d.Inputs {
			vec[i] = inputValue(r, p.Var.Type)
			vals[p.Var.Name] = vec[i]
		}
		args, err := interpArgs(fe.fn, vals)
		if err != nil {
			return nil, err
		}
		ret, outs, err := cc.NewInterp(fe.info).Call(fe.fn.Name, args...)
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		want := make([]int64, len(d.Outputs))
		for i, p := range d.Outputs {
			if oi, ok := outIdx[p.Var.Name]; ok {
				want[i] = outs[oi]
			} else {
				want[i] = ret
			}
		}
		cs.inputs = append(cs.inputs, vec)
		cs.want = append(cs.want, want)
	}
	return cs, nil
}

// check runs the vectors through a fresh simulator of the data path.
func (cs *combCase) check(d *dp.Datapath) error {
	got, err := dp.NewSim(d).Run(cs.inputs)
	if err != nil {
		return err
	}
	for i := range cs.want {
		for j := range cs.want[i] {
			if got[i][j] != cs.want[i][j] {
				return fmt.Errorf("vector %d output %d = %d, want %d", i, j, got[i][j], cs.want[i][j])
			}
		}
	}
	return nil
}

// runSystem runs one stream through a freshly built System (default
// configuration) and fills job like the serving stack does.
func runSystem(res *core.Result, bus int, in *streamInput, job *netlist.Job) (*netlist.System, error) {
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: bus, Scalars: in.scalars})
	if err != nil {
		return nil, err
	}
	for name, vals := range in.arrays {
		if err := sys.LoadInput(name, vals); err != nil {
			return nil, err
		}
	}
	sim, err := sys.Run()
	return sys, collect(sys, sim, err, job)
}

// collect copies a finished run's results (or its error) into job.
func collect(sys *netlist.System, sim *dp.Sim, runErr error, job *netlist.Job) error {
	job.Err = runErr
	if runErr != nil {
		return nil
	}
	job.Cycles = sys.Cycles()
	job.Outputs = map[string][]int64{}
	for _, w := range sys.Kernel.Writes {
		out, err := sys.Output(w.Arr.Name)
		if err != nil {
			return err
		}
		job.Outputs[w.Arr.Name] = out
	}
	job.Feedbacks = map[string]int64{}
	for _, fb := range sys.Datapath.Feedbacks {
		if v, ok := sim.FeedbackByName(fb.State.Name); ok {
			job.Feedbacks[fb.State.Name] = v
		}
	}
	return nil
}
