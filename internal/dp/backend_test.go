package dp_test

import (
	"errors"
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// backend_test.go is the backend differential matrix: every non-interp
// backend runs the same workloads as the interpreter reference and must
// match it bit for bit — outputs on every cycle, feedback state, cycle
// counts, and on faulting schedules the typed *FaultError (operator
// class and abort cycle). The matrix covers the Table 1 kernels
// (including the feedback kernels), fuzzed kernels with and without
// faulting divisions, random bubble schedules, and planted
// divide-by-zero iterations.

// diffBackends drives one sim per backend through the same random
// schedule of valid and bubble runs and requires every backend to match
// the interp reference exactly.
func diffBackends(t *testing.T, name string, d *dp.Datapath, rng *rand.Rand, zeroInputs bool, cycles int) {
	t.Helper()
	backends := dp.Backends()
	sims := make([]*dp.Sim, len(backends))
	for i, b := range backends {
		sims[i] = dp.NewSimWith(d, b)
		if got := sims[i].Backend(); got != b {
			t.Fatalf("%s: NewSimWith(%v).Backend() = %v", name, b, got)
		}
	}
	ref := sims[0] // interp
	inW := len(d.Inputs)
	outW := len(d.Outputs)
	maxChunk := 40
	in := make([]int64, maxChunk*inW)
	outs := make([][]int64, len(backends))
	for i := range outs {
		outs[i] = make([]int64, maxChunk*outW)
	}
	errs := make([]error, len(backends))
	for done := 0; done < cycles; {
		n := 1 + rng.Intn(maxChunk)
		valid := rng.Intn(3) != 0
		if valid {
			for j := 0; j < n*inW; j++ {
				if zeroInputs && rng.Intn(6) == 0 {
					in[j] = 0
				} else {
					in[j] = rng.Int63n(1<<12) - 1<<11
				}
			}
		}
		for i, sim := range sims {
			var o []int64
			if valid {
				o, errs[i] = sim.StepN(in[:n*inW], n)
			} else {
				o, errs[i] = sim.DrainN(n)
			}
			if errs[i] == nil {
				copy(outs[i], o)
			}
		}
		for i := 1; i < len(backends); i++ {
			b := backends[i]
			if (errs[i] != nil) != (errs[0] != nil) {
				t.Fatalf("%s [%v]: error mismatch after %d cycles (n=%d valid=%v): %v vs interp %v",
					name, b, done, n, valid, errs[i], errs[0])
			}
			if errs[0] != nil {
				var fi, fr *dp.FaultError
				if errors.As(errs[i], &fi) != errors.As(errs[0], &fr) {
					t.Fatalf("%s [%v]: fault typing mismatch: %v vs interp %v", name, b, errs[i], errs[0])
				}
				if fi != nil && (fi.Op != fr.Op || fi.Cycle != fr.Cycle) {
					t.Fatalf("%s [%v]: fault mismatch: op=%s cycle=%d vs interp op=%s cycle=%d",
						name, b, fi.Op, fi.Cycle, fr.Op, fr.Cycle)
				}
				continue
			}
			for j := 0; j < n*outW; j++ {
				if outs[i][j] != outs[0][j] {
					t.Fatalf("%s [%v]: output mismatch at chunk cycle %d port %d (cycles %d..%d, valid=%v): %d vs interp %d",
						name, b, j%n, j/n, done, done+n-1, valid, outs[i][j], outs[0][j])
				}
			}
		}
		if errs[0] != nil {
			break
		}
		done += n
	}
	for i := 1; i < len(backends); i++ {
		b := backends[i]
		if sims[i].Cycle() != ref.Cycle() {
			t.Fatalf("%s [%v]: cycle count %d, interp %d", name, b, sims[i].Cycle(), ref.Cycle())
		}
		for v, rv := range ref.State {
			if bv, ok := sims[i].State[v]; !ok || bv != rv {
				t.Fatalf("%s [%v]: feedback %s: %d, interp %d", name, b, v.Name, sims[i].State[v], rv)
			}
		}
	}
}

// TestBackendDifferentialBenchKernels runs the full backend matrix over
// every Table 1 kernel on random bubble schedules.
func TestBackendDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		diffBackends(t, k.Name, res.Datapath, rng, false, 700)
	}
}

// TestBackendDifferentialFuzz extends the matrix to fuzzed kernels,
// rotating division-free kernels with division kernels fed occasional
// zeros (every backend must abort on the interpreter's cycle with the
// interpreter's fault).
func TestBackendDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	const kernels = 18
	for ki := 0; ki < kernels; ki++ {
		withDiv := ki%3 != 2
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2), withDiv)
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: []float64{2.5, 5, 1000}[ki%3],
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		diffBackends(t, src, res.Datapath, rng, withDiv, 400)
	}
}

// TestBackendFaultParity plants exactly one zero divisor at assorted
// positions (chunk boundaries included) and requires each backend's
// RunBatch to abort with the interpreter's fault on the interpreter's
// cycle.
func TestBackendFaultParity(t *testing.T) {
	src := `
void k(int a, int b, int* q) {
	*q = a / b;
}
`
	res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, zeroAt := range []int{0, 1, 37, 255, 256, 299} {
		iters := make([][]int64, 300)
		for i := range iters {
			iters[i] = []int64{int64(i + 1), int64(i%97 + 1)}
			if i == zeroAt {
				iters[i][1] = 0
			}
		}
		ref := dp.NewSim(res.Datapath)
		_, rerr := ref.RunBatch(columns(iters, 2), len(iters))
		var rf *dp.FaultError
		if !errors.As(rerr, &rf) {
			t.Fatalf("zeroAt=%d: interp did not raise a FaultError: %v", zeroAt, rerr)
		}
		for _, b := range dp.Backends()[1:] {
			sim := dp.NewSimWith(res.Datapath, b)
			_, berr := sim.RunBatch(columns(iters, 2), len(iters))
			var bf *dp.FaultError
			if !errors.As(berr, &bf) {
				t.Fatalf("zeroAt=%d [%v]: no FaultError: %v", zeroAt, b, berr)
			}
			if bf.Op != rf.Op || bf.Cycle != rf.Cycle {
				t.Fatalf("zeroAt=%d [%v]: fault op=%s cycle=%d, interp op=%s cycle=%d",
					zeroAt, b, bf.Op, bf.Cycle, rf.Op, rf.Cycle)
			}
			if sim.Cycle() != ref.Cycle() {
				t.Fatalf("zeroAt=%d [%v]: post-abort cycle %d, interp %d", zeroAt, b, sim.Cycle(), ref.Cycle())
			}
		}
	}
}

// TestMulAccClosedFormCone pins the tentpole: mul_acc's accumulate cone
// must be recognized in closed form (otherwise the cone backends
// silently degrade to the lane-serial path and the kernel keeps
// serializing).
func TestMulAccClosedFormCone(t *testing.T) {
	res, err := bench.MulAcc().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !dp.NewSimWith(res.Datapath, dp.BackendCone).HasClosedFormCone() {
		t.Fatal("mul_acc: feedback cone not recognized in closed form")
	}
	// A feedback-free kernel has no cone at all.
	res, err = bench.DCT().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dp.NewSimWith(res.Datapath, dp.BackendCone).HasClosedFormCone() {
		t.Fatal("dct: unexpected closed-form cone on a feedback-free kernel")
	}
}

// TestBackendStepNZeroAllocs: the threaded batch steady state must not
// allocate — the lane kernels and their fixed-stride scratch are
// compiled and grown once.
func TestBackendStepNZeroAllocs(t *testing.T) {
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, b := range dp.Backends()[1:] {
			sim := dp.NewSimWith(res.Datapath, b)
			const n = 64
			in := make([]int64, n*len(res.Datapath.Inputs))
			for i := range in {
				in[i] = int64(i%251 + 1)
			}
			if _, err := sim.StepN(in, n); err != nil {
				t.Fatalf("%s [%v]: %v", k.Name, b, err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := sim.StepN(in, n); err != nil {
					t.Fatalf("%s [%v]: %v", k.Name, b, err)
				}
				if _, err := sim.DrainN(8); err != nil {
					t.Fatalf("%s [%v]: %v", k.Name, b, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s [%v]: StepN/DrainN steady state allocates %.1f allocs/op, want 0", k.Name, b, allocs)
			}
		}
	}
}

// TestParseBackend pins the flag surface.
func TestParseBackend(t *testing.T) {
	for _, b := range dp.Backends() {
		got, err := dp.ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := dp.ParseBackend("jit"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
}
