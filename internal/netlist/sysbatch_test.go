package netlist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// sysbatch_test.go pins the columnar streak path of System.Run
// bit-identical to the serial per-cycle path (Config.Serial, the
// reference): outputs, feedback latches, cycle counts, every read and
// write BRAM's access counters, every smart buffer's fetch count (the
// fetch-once property) and — on planted faults and failing stores — the
// abort cycle, the full *dp.FaultError or error text, and all of those
// counters at the abort. The matrix covers the streamable Table 1
// kernels (including the mul_acc feedback row), the ci/corpus kernels,
// fuzzed window geometries chosen to produce every backpressure regime
// (stride under/at/over the bus width, 2-D strips), multi-element,
// strided, colliding and out-of-range writes, and divide-by-zero faults
// planted at the edges and middle of streak chunks.

// diffRun runs the same streams through a serial interpreter System and
// a streak-batched System on cfg's execution backend, and fails on any
// observable divergence — the failing backend is named in the message.
// It returns how many cycles the batched systems dispatched through the
// streak path (faulted runs included), so callers can assert the batch
// machinery actually engaged.
func diffRun(t *testing.T, res *core.Result, cfg Config, streams []map[string][]int64, tag string) int {
	t.Helper()
	tag = fmt.Sprintf("%s[%v]", tag, cfg.Backend)
	// The reference is always the serial interpreter core, whatever
	// backend the batched system runs.
	scfg := cfg
	scfg.Serial = true
	scfg.Backend = dp.BackendInterp
	serial, err := NewSystem(res.Kernel, res.Datapath, scfg)
	if err != nil {
		t.Fatalf("%s: serial system: %v", tag, err)
	}
	bcfg := cfg
	bcfg.Serial = false
	batched, err := NewSystem(res.Kernel, res.Datapath, bcfg)
	if err != nil {
		t.Fatalf("%s: batched system: %v", tag, err)
	}
	batchedCycles := 0
	for si, inputs := range streams {
		serial.Reset()
		batched.Reset()
		for name, vals := range inputs {
			if err := serial.LoadInput(name, vals); err != nil {
				t.Fatalf("%s stream %d: %v", tag, si, err)
			}
			if err := batched.LoadInput(name, vals); err != nil {
				t.Fatalf("%s stream %d: %v", tag, si, err)
			}
		}
		sSim, sErr := serial.Run()
		bSim, bErr := batched.Run()
		if (sErr != nil) != (bErr != nil) {
			t.Fatalf("%s stream %d: error mismatch: serial %v, batched %v", tag, si, sErr, bErr)
		}
		if sErr != nil {
			var sf, bf *dp.FaultError
			sIsFault := errors.As(sErr, &sf)
			bIsFault := errors.As(bErr, &bf)
			if sIsFault != bIsFault {
				t.Fatalf("%s stream %d: fault typing mismatch: serial %v, batched %v", tag, si, sErr, bErr)
			}
			if sIsFault && (sf.Op != bf.Op || sf.Cycle != bf.Cycle || sf.Msg != bf.Msg) {
				t.Fatalf("%s stream %d: fault mismatch: serial %+v, batched %+v", tag, si, sf, bf)
			}
			if !sIsFault && sErr.Error() != bErr.Error() {
				t.Fatalf("%s stream %d: error mismatch: serial %q, batched %q", tag, si, sErr, bErr)
			}
		}
		if serial.Cycles() != batched.Cycles() {
			t.Fatalf("%s stream %d: cycles: serial %d, batched %d (err %v)", tag, si, serial.Cycles(), batched.Cycles(), sErr)
		}
		if serial.BatchedCycles() != 0 || batched.BatchedCycles() > batched.Cycles() {
			t.Fatalf("%s stream %d: batched cycles: serial %d, streak %d of %d", tag, si, serial.BatchedCycles(), batched.BatchedCycles(), batched.Cycles())
		}
		// Memory-side parity, faulted runs included: the streak path
		// advances buffers, generators and BRAM counters in bulk, and
		// must land exactly where the per-cycle memory stage, window pops
		// and harvest stores would have.
		for i, m := range serial.readBRAMs {
			sr, sw := m.Stats()
			br, bw := batched.readBRAMs[i].Stats()
			if sr != br || sw != bw {
				t.Fatalf("%s stream %d: read BRAM %s stats: serial %d/%d, batched %d/%d", tag, si, m.Name, sr, sw, br, bw)
			}
			if sf, bf := serial.buffers[i].Fetched(), batched.buffers[i].Fetched(); sf != bf {
				t.Fatalf("%s stream %d: buffer %s fetched: serial %d, batched %d", tag, si, m.Name, sf, bf)
			}
		}
		for i, m := range serial.writeBRAMs {
			sr, sw := m.Stats()
			br, bw := batched.writeBRAMs[i].Stats()
			if sr != br || sw != bw {
				t.Fatalf("%s stream %d: write BRAM %s stats: serial %d/%d, batched %d/%d", tag, si, m.Name, sr, sw, br, bw)
			}
			for j, want := range m.Data {
				if got := batched.writeBRAMs[i].Data[j]; got != want {
					t.Fatalf("%s stream %d: %s[%d] = %d batched, %d serial (err %v)", tag, si, m.Name, j, got, want, sErr)
				}
			}
		}
		batchedCycles += batched.BatchedCycles()
		if sErr != nil {
			continue
		}
		for _, fb := range res.Datapath.Feedbacks {
			want, wok := sSim.FeedbackByName(fb.State.Name)
			got, gok := bSim.FeedbackByName(fb.State.Name)
			if wok != gok || got != want {
				t.Fatalf("%s stream %d: feedback %s = %d/%v batched, %d/%v serial",
					tag, si, fb.State.Name, got, gok, want, wok)
			}
		}
	}
	return batchedCycles
}

// diffAllBackends runs diffRun on every execution backend and returns
// the streak cycles dispatched on the interpreter.
func diffAllBackends(t *testing.T, res *core.Result, cfg Config, streams []map[string][]int64, tag string) int {
	t.Helper()
	bc := 0
	for i, backend := range dp.Backends() {
		cfg.Backend = backend
		if n := diffRun(t, res, cfg, streams, tag); i == 0 {
			bc = n
		}
	}
	return bc
}

// scalarsFor binds every scalar parameter of a kernel to a small value.
func scalarsFor(res *core.Result) map[string]int64 {
	m := map[string]int64{}
	for i, prm := range res.Kernel.ScalarParams {
		m[prm.Name] = int64(3 + 2*i)
	}
	return m
}

// randStreams builds n random input streams for a compiled kernel.
func randStreams(res *core.Result, rng *rand.Rand, n int) []map[string][]int64 {
	streams := make([]map[string][]int64, n)
	for i := range streams {
		inputs := map[string][]int64{}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for j := range vals {
				vals[j] = rng.Int63n(511) - 256
			}
			inputs[w.Arr.Name] = vals
		}
		streams[i] = inputs
	}
	return streams
}

// TestSysBatchTable1 runs every streamable Table 1 row — including the
// mul_acc feedback kernel, whose 1024-iteration nest has no read arrays
// at all — through both dispatch paths.
func TestSysBatchTable1(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for _, backend := range dp.Backends() {
		sawStreak := false
		for _, k := range bench.All() {
			res, err := k.Compile()
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			cfg := Config{BusElems: k.BusElems, Scalars: k.Scalars, Backend: backend}
			if _, err := NewSystem(res.Kernel, res.Datapath, cfg); err != nil {
				continue // combinational row: no loop nest to stream
			}
			bc := diffRun(t, res, cfg, randStreams(res, rng, 4), k.Name)
			if bc > 0 {
				sawStreak = true
			}
		}
		if !sawStreak {
			t.Fatalf("[%v] no Table 1 kernel dispatched a single streak chunk; the batch path never engaged", backend)
		}
	}
}

// TestSysBatchCorpus runs every streamable ci/corpus kernel through
// both dispatch paths on every backend, at bus widths 1 and 3.
func TestSysBatchCorpus(t *testing.T) {
	files, err := filepath.Glob("../../ci/corpus/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus kernels: %v", err)
	}
	rng := rand.New(rand.NewSource(2005))
	streamed := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CompileSource(string(src), "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Kernel.Nest.Depth() == 0 {
			continue // combinational: no memory system to stream through
		}
		streamed++
		for _, bus := range []int{1, 3} {
			cfg := Config{BusElems: bus, Scalars: scalarsFor(res)}
			diffAllBackends(t, res, cfg, randStreams(res, rng, 2), fmt.Sprintf("%s(bus=%d)", filepath.Base(f), bus))
		}
	}
	if streamed == 0 {
		t.Fatal("ci/corpus holds no streaming kernel")
	}
}

// TestSysBatchFuzzGeometry fuzzes the window geometry — tap offsets,
// stride vs bus width (supply-limited S > B, balanced and supply-rich
// regimes) — together with the write shape: one to three elements per
// iteration stored at a stride, so the columnar harvest writes
// multi-element, strided runs.
func TestSysBatchFuzzGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sawSupplyLimited := false
	for ki := 0; ki < 32; ki++ {
		stride := 1 + rng.Intn(4)
		iters := 8 + rng.Intn(40)
		ntaps := 1 + rng.Intn(4)
		maxOff := 0
		taps := make([]int, ntaps)
		for i := range taps {
			taps[i] = rng.Intn(5)
			if taps[i] > maxOff {
				maxOff = taps[i]
			}
		}
		alen := stride*(iters-1) + maxOff + 1
		var expr strings.Builder
		for i, off := range taps {
			if i > 0 {
				expr.WriteString(" + ")
			}
			fmt.Fprintf(&expr, "%d*A[%d*i+%d]", rng.Intn(9)-4, stride, off)
		}
		// nw elements per iteration at write stride ws >= nw: distinct
		// addresses, gaps between iterations when ws > nw.
		nw := 1 + rng.Intn(3)
		ws := nw + rng.Intn(2)
		var body strings.Builder
		for e := 0; e < nw; e++ {
			fmt.Fprintf(&body, "\t\tC[%d*i+%d] = %s + %d;\n", ws, e, expr.String(), e)
		}
		src := fmt.Sprintf(`
int A[%d];
int C[%d];
void k() {
	int i;
	for (i = 0; i < %d; i = i + 1) {
%s	}
}
`, alen, ws*iters, iters, body.String())
		res, err := core.CompileSource(src, "k", core.Options{Optimize: ki%2 == 0, PeriodNs: 5})
		if err != nil {
			t.Fatalf("kernel %d: %v\n%s", ki, err, src)
		}
		bus := 1 + rng.Intn(5)
		sawSupplyLimited = sawSupplyLimited || stride > bus
		tag := fmt.Sprintf("fuzz%d(stride=%d,bus=%d,taps=%d,writes=%dx%d)", ki, stride, bus, ntaps, nw, ws)
		cfg := Config{BusElems: bus}
		if ki%4 == 0 {
			diffAllBackends(t, res, cfg, randStreams(res, rng, 2), tag)
		} else {
			diffRun(t, res, cfg, randStreams(res, rng, 2), tag)
		}
	}
	if !sawSupplyLimited {
		t.Fatal("no fuzzed geometry had stride > bus width")
	}
}

// TestSysBatchWriteShapes covers the write runs the columnar harvest
// must get right beyond the plain streaming store: elements whose
// addresses collide across iterations (store order matters: the plan
// caps such runs at one iteration), 2-D writes split at every row end,
// a transposed store striding whole rows, and a store that leaves the
// array (the failing store, and every store before it, must match the
// serial harvest).
func TestSysBatchWriteShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name, src string
		bus       int
		runMax1   bool
	}{
		{"colliding", `
int A[40];
int C[41];
void k() {
	int i;
	for (i = 0; i < 36; i++) {
		C[i] = A[i] + A[i+1];
		C[i+1] = A[i+2] - A[i];
	}
}
`, 2, true},
		{"2d-strided", `
int img[12][18];
int out[10][24];
void k() {
	int i; int j;
	for (i = 0; i < 10; i++)
		for (j = 0; j < 8; j++) {
			out[i][3*j] = img[i][2*j] + img[i+2][2*j+1];
			out[i][3*j+2] = img[i+1][2*j] - img[i][2*j+1];
		}
}
`, 3, false},
		{"transposed", `
int img[9][9];
int out[8][8];
void k() {
	int i; int j;
	for (i = 0; i < 8; i++)
		for (j = 0; j < 8; j++)
			out[j][i] = img[i][j] + img[i+1][j+1];
}
`, 1, false},
		{"out-of-range", `
int A[40];
int C[36];
void k() {
	int i;
	for (i = 0; i < 36; i++) {
		C[i+1] = A[i] * A[i+4];
	}
}
`, 1, false},
	} {
		res, err := core.CompileSource(tc.src, "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg := Config{BusElems: tc.bus}
		sys, err := NewSystem(res.Kernel, res.Datapath, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sys.plan.writes[0].runMax == 1; got != tc.runMax1 {
			t.Fatalf("%s: write runs capped at one iteration = %v, want %v", tc.name, got, tc.runMax1)
		}
		if bc := diffAllBackends(t, res, cfg, randStreams(res, rng, 2), tc.name); bc == 0 {
			t.Fatalf("%s: no streak chunk dispatched; the columnar harvest went untested", tc.name)
		}
	}
}

// TestSysBatchBatchedCyclesPinned pins the dispatch schedule itself on
// the benchmark kernels: how many of a run's cycles the streak path
// executes is part of the simulated statistics (netlist.batched_frac),
// so a change to the executor must not move it.
func TestSysBatchBatchedCyclesPinned(t *testing.T) {
	dct := bench.DCT()
	dct4k := strings.ReplaceAll(strings.ReplaceAll(dct.Source, "[64]", "[4096]"), "i < 64", "i < 4096")
	for _, tc := range []struct {
		name, src, fn   string
		opt             core.Options
		bus             int
		cycles, batched int
	}{
		{"fir", bench.FIR().Source, bench.FIR().Func, bench.FIR().Options, bench.FIR().BusElems, 33, 31},
		{"dct", dct.Source, dct.Func, dct.Options, dct.BusElems, 9, 9},
		{"dct4k", dct4k, dct.Func, dct.Options, dct.BusElems, 513, 513},
		{"wavelet", bench.Wavelet().Source, bench.Wavelet().Func, bench.Wavelet().Options, bench.Wavelet().BusElems, 347, 347},
		{"mul_acc", bench.MulAcc().Source, bench.MulAcc().Func, bench.MulAcc().Options, bench.MulAcc().BusElems, 1025, 1025},
	} {
		res, err := core.CompileSource(tc.src, tc.fn, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, backend := range dp.Backends() {
			sys, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: tc.bus, Backend: backend, Scalars: scalarsFor(res)})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for name, vals := range randStreams(res, rand.New(rand.NewSource(1)), 1)[0] {
				if err := sys.LoadInput(name, vals); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.Run(); err != nil {
				t.Fatalf("%s [%v]: %v", tc.name, backend, err)
			}
			if sys.Cycles() != tc.cycles || sys.BatchedCycles() != tc.batched {
				t.Fatalf("%s [%v]: %d cycles, %d batched; want %d, %d", tc.name, backend, sys.Cycles(), sys.BatchedCycles(), tc.cycles, tc.batched)
			}
		}
	}
}

// TestSysBatch2DStencils covers the row-strip boundary logic: 2-D
// windows stream strip by strip, and the predictor must stop each
// streak at the strip edge (the next strip needs whole new image rows).
func TestSysBatch2DStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		rows, cols int
		eh, ew     int // window extent
		sh, sw     int // window stride
		bus        int
	}{
		{10, 10, 3, 3, 1, 1, 1},
		{12, 12, 2, 4, 1, 1, 2},
		{9, 16, 3, 2, 1, 1, 4},
		{13, 17, 3, 3, 2, 2, 1}, // S > B: consumption outruns the bus
		{11, 20, 2, 3, 1, 3, 2},
		{16, 16, 5, 5, 2, 2, 4}, // the wavelet shape: strip stalls with bubble skips
	} {
		var expr strings.Builder
		for r := 0; r < tc.eh; r++ {
			for c := 0; c < tc.ew; c++ {
				if r+c > 0 {
					expr.WriteString(" + ")
				}
				fmt.Fprintf(&expr, "%d*img[%d*i+%d][%d*j+%d]", rng.Intn(7)-3, tc.sh, r, tc.sw, c)
			}
		}
		oh, ow := (tc.rows-tc.eh)/tc.sh+1, (tc.cols-tc.ew)/tc.sw+1
		src := fmt.Sprintf(`
int img[%d][%d];
int out[%d][%d];
void k() {
	int i; int j;
	for (i = 0; i < %d; i++)
		for (j = 0; j < %d; j++)
			out[i][j] = %s;
}
`, tc.rows, tc.cols, oh, ow, oh, ow, expr.String())
		res, err := core.CompileSource(src, "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("stencil %dx%d: %v\n%s", tc.eh, tc.ew, err, src)
		}
		tag := fmt.Sprintf("stencil%dx%d/%dx%d(bus=%d)", tc.eh, tc.ew, tc.sh, tc.sw, tc.bus)
		diffAllBackends(t, res, Config{BusElems: tc.bus}, randStreams(res, rng, 2), tag)
	}
}

// TestSysBatchFaultParity plants divide-by-zero and modulo-by-zero
// faults on valid iterations: in the fill, in the first latency rows of
// a streak chunk (whose exits still belong to the previous chunk), in
// mid-chunk, in a chunk's last row, and on the run's last iteration.
// Both paths must abort with the identical *dp.FaultError (operator
// class, data-path cycle, message), the identical system cycle count
// and identical memory-side counters, and clean streams through the
// same divider must agree end to end (drain bubbles feed the divider
// zeros that poison must mask). The kernel stores two elements per
// iteration, so the faulting chunk's harvest is a multi-element run.
func TestSysBatchFaultParity(t *testing.T) {
	const n = 600
	src := fmt.Sprintf(`
int A[%d];
int B[%d];
int Q[%d];
void divide() {
	int i;
	for (i = 0; i < %d; i++) {
		Q[2*i] = A[i] / B[i];
		Q[2*i+1] = A[i] %% B[i];
	}
}
`, n, n, 2*n, n)
	res, err := core.CompileSource(src, "divide", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Datapath.Latency()
	rng := rand.New(rand.NewSource(11))
	mk := func(zeroAt int) map[string][]int64 {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(2000) - 1000
			b[i] = rng.Int63n(97) + 1
			if rng.Intn(2) == 0 {
				b[i] = -b[i]
			}
		}
		if zeroAt >= 0 {
			b[zeroAt] = 0
		}
		return map[string][]int64{"A": a, "B": b}
	}
	streams := []map[string][]int64{mk(-1)} // clean: bubbles must stay masked
	// The first streak chunk starts on the first feed cycle and chunks
	// are sysChunkMax iterations long, so iteration c*sysChunkMax+r sits
	// in row r of chunk c.
	for _, at := range []int{
		0, 1, 5, // fill edge and the first chunk's first rows
		sysChunkMax, sysChunkMax + lat - 1, // a later chunk's first latency rows
		sysChunkMax + 100, // mid-chunk
		2*sysChunkMax - 1, // a chunk's last row
		n - 2, n - 1,      // the last iterations: the fault lands in the drain
	} {
		streams = append(streams, mk(at))
	}
	for _, backend := range dp.Backends() {
		cfg := Config{BusElems: 1, Backend: backend}
		if bc := diffRun(t, res, cfg, streams, "divider"); bc == 0 {
			t.Fatalf("[%v] divider never dispatched a streak chunk; fault replay path untested", backend)
		}
	}
}

// TestSysBatchPoolPassthrough pins the pool plumbing: a SystemPool built
// without Config.Serial serves batched systems (the serve path inherits
// the streak speedup unchanged), and Put refuses a System whose dispatch
// path differs from the pool's configuration.
func TestSysBatchPoolPassthrough(t *testing.T) {
	k := bench.FIR()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BusElems: k.BusElems}
	pool, err := NewSystemPool(res.Kernel, res.Datapath, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sys, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if sys.serial {
		t.Fatal("pool without Config.Serial built a serial System")
	}
	rng := rand.New(rand.NewSource(3))
	in := randStreams(res, rng, 1)[0]
	for name, vals := range in {
		if err := sys.LoadInput(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.BatchedCycles() == 0 {
		t.Fatal("pooled System.Run dispatched no streak cycles")
	}
	pool.Put(sys)

	scfg := cfg
	scfg.Serial = true
	foreign, err := NewSystem(res.Kernel, res.Datapath, scfg)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	pool.Put(foreign)
	after := pool.Stats()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("serial System admitted into a batched pool (rejected %d -> %d)", before.Rejected, after.Rejected)
	}

	// A System on a different execution backend must be rejected too —
	// an interp pool fed a threaded System (or vice versa) would silently
	// change the dispatch path of later Gets.
	bcfg := cfg
	bcfg.Backend = dp.BackendThreaded
	alien, err := NewSystem(res.Kernel, res.Datapath, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	before = pool.Stats()
	pool.Put(alien)
	after = pool.Stats()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("threaded System admitted into an interp pool (rejected %d -> %d)", before.Rejected, after.Rejected)
	}
	if after.Puts != before.Puts {
		t.Fatalf("backend-mismatched Put also counted as accepted (puts %d -> %d)", before.Puts, after.Puts)
	}
}
