package dp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// batch_test.go pins the lane-parallel batch path (StepN/DrainN/
// RunBatch) bit-identical to the serial core: same outputs on every
// cycle, same faults on the same cycle, same feedback state — across
// the Table 1 kernels (including feedback kernels), fuzzed kernels,
// random bubble schedules, and divisor-zero iterations.

// stepSerial advances the serial reference by n valid cycles over the
// column-major input block StepN takes, scattering each cycle's outputs
// into the column-major block StepN returns (up to the error Step
// raised, if any).
func stepSerial(s *dp.Sim, inputs []int64, n, inW, outW int, out []int64) error {
	row := make([]int64, inW)
	for c := 0; c < n; c++ {
		for i := range row {
			row[i] = inputs[i*n+c]
		}
		o, err := s.Step(row)
		if err != nil {
			return err
		}
		for j, v := range o {
			out[j*n+c] = v
		}
	}
	return nil
}

func drainSerial(s *dp.Sim, n, outW int, out []int64) error {
	for c := 0; c < n; c++ {
		o, err := s.Drain()
		if err != nil {
			return err
		}
		for j, v := range o {
			out[j*n+c] = v
		}
	}
	return nil
}

// sameRows compares the first rows of two column-major blocks of n rows.
func sameRows(t *testing.T, name string, got, want []int64, n, outW, rows int) {
	t.Helper()
	for j := 0; j < outW; j++ {
		for r := 0; r < rows; r++ {
			if got[j*n+r] != want[j*n+r] {
				t.Fatalf("%s: output mismatch at chunk cycle %d port %d: batch %d, serial %d",
					name, r, j, got[j*n+r], want[j*n+r])
			}
		}
	}
}

// diffSchedule drives one batch sim and one serial sim through the same
// random schedule of valid runs and bubble runs (chunk sizes 1..40, so
// the serial shortcut, a single lane chunk and multi-chunk splits are
// all exercised) and requires identical outputs, errors, cycle counts
// and feedback state.
func diffSchedule(t *testing.T, name string, d *dp.Datapath, rng *rand.Rand, zeroInputs bool, cycles int) {
	t.Helper()
	bat := dp.NewSim(d)
	ref := dp.NewSim(d)
	inW := len(d.Inputs)
	outW := len(d.Outputs)
	maxChunk := 40
	in := make([]int64, maxChunk*inW)
	bOut := make([]int64, maxChunk*outW)
	rOut := make([]int64, maxChunk*outW)
	for done := 0; done < cycles; {
		n := 1 + rng.Intn(maxChunk)
		valid := rng.Intn(3) != 0
		var bErr, rErr error
		c0 := bat.Cycle()
		if valid {
			for j := 0; j < n*inW; j++ {
				if zeroInputs && rng.Intn(6) == 0 {
					in[j] = 0
				} else {
					in[j] = rng.Int63n(1<<12) - 1<<11
				}
			}
			var o []int64
			o, bErr = bat.StepN(in[:n*inW], n)
			copy(bOut, o)
			rErr = stepSerial(ref, in, n, inW, outW, rOut)
		} else {
			var o []int64
			o, bErr = bat.DrainN(n)
			copy(bOut, o)
			rErr = drainSerial(ref, n, outW, rOut)
		}
		if (bErr != nil) != (rErr != nil) {
			t.Fatalf("%s: error mismatch after %d cycles (n=%d valid=%v): batch %v, serial %v",
				name, done, n, valid, bErr, rErr)
		}
		if bErr != nil {
			// Both faulted: the abort must land on the same cycle and
			// leave identical latch state, and the rows committed before
			// it must be the serial rows; stop the schedule here.
			if bat.Cycle() != ref.Cycle() {
				t.Fatalf("%s: abort cycle: batch %d, serial %d", name, bat.Cycle(), ref.Cycle())
			}
			sameRows(t, name, bOut, rOut, n, outW, bat.Cycle()-c0)
			break
		}
		sameRows(t, fmt.Sprintf("%s (batch cycles %d..%d, valid=%v)", name, done, done+n-1, valid), bOut, rOut, n, outW, n)
		done += n
	}
	if bat.Cycle() != ref.Cycle() {
		t.Fatalf("%s: cycle count: batch %d, serial %d", name, bat.Cycle(), ref.Cycle())
	}
	for v, rv := range ref.State {
		if bv, ok := bat.State[v]; !ok || bv != rv {
			t.Fatalf("%s: feedback %s: batch %d, serial %d", name, v.Name, bat.State[v], rv)
		}
	}
}

// TestStepNDifferentialBenchKernels runs every Table 1 kernel —
// including the feedback kernels, whose lanes serialize through the
// latch cone — through random batched schedules against the serial
// core.
func TestStepNDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		diffSchedule(t, k.Name, res.Datapath, rng, false, 700)
	}
}

// TestStepNDifferentialFuzz extends the schedule differential to fuzzed
// kernels, rotating through division-by-input kernels with nonzero
// divisors (bubbles must mask the zero the drain pushes through the
// divider), division kernels with occasional zero divisors (a valid
// zero divisor must fault identically in both paths), and division-free
// kernels.
func TestStepNDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const kernels = 24
	for ki := 0; ki < kernels; ki++ {
		group := ki % 3
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2), group != 2)
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: []float64{2.5, 5, 1000}[ki%3],
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		// Group 0 feeds only nonzero magnitudes so valid iterations never
		// fault; group 1 feeds occasional zeros so they do.
		if group == 0 {
			diffScheduleNonzero(t, src, res.Datapath, rng, 400)
		} else {
			diffSchedule(t, src, res.Datapath, rng, true, 400)
		}
	}
}

// diffScheduleNonzero is diffSchedule with strictly nonzero inputs
// (divide-by-input kernels that must complete fault-free).
func diffScheduleNonzero(t *testing.T, name string, d *dp.Datapath, rng *rand.Rand, cycles int) {
	t.Helper()
	bat := dp.NewSim(d)
	ref := dp.NewSim(d)
	inW := len(d.Inputs)
	outW := len(d.Outputs)
	maxChunk := 40
	in := make([]int64, maxChunk*inW)
	bOut := make([]int64, maxChunk*outW)
	rOut := make([]int64, maxChunk*outW)
	for done := 0; done < cycles; {
		n := 1 + rng.Intn(maxChunk)
		valid := rng.Intn(3) != 0
		var bErr, rErr error
		if valid {
			for j := 0; j < n*inW; j++ {
				in[j] = 1 + rng.Int63n(1<<11)
				if rng.Intn(2) == 0 {
					in[j] = -in[j]
				}
			}
			var o []int64
			o, bErr = bat.StepN(in[:n*inW], n)
			copy(bOut, o)
			rErr = stepSerial(ref, in, n, inW, outW, rOut)
		} else {
			var o []int64
			o, bErr = bat.DrainN(n)
			copy(bOut, o)
			rErr = drainSerial(ref, n, outW, rOut)
		}
		if bErr != nil || rErr != nil {
			t.Fatalf("%s: unexpected fault (batch %v, serial %v): bubbles or nonzero iterations trapped", name, bErr, rErr)
		}
		sameRows(t, name, bOut, rOut, n, outW, n)
		done += n
	}
	if bat.Cycle() != ref.Cycle() {
		t.Fatalf("%s: cycle count: batch %d, serial %d", name, bat.Cycle(), ref.Cycle())
	}
}

// TestRunBatchMatchesRun pins RunBatch bit-identical to Run over the
// Table 1 kernels on random inputs.
func TestRunBatchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		iters := make([][]int64, 300)
		for i := range iters {
			row := make([]int64, len(res.Datapath.Inputs))
			for j := range row {
				row[j] = rng.Int63n(1 << 12)
			}
			iters[i] = row
		}
		want, err := dp.NewSim(res.Datapath).Run(iters)
		if err != nil {
			t.Fatalf("%s: Run: %v", k.Name, err)
		}
		n := len(iters)
		got, err := dp.NewSim(res.Datapath).RunBatch(columns(iters, len(res.Datapath.Inputs)), n)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", k.Name, err)
		}
		if len(got) != n*len(res.Datapath.Outputs) {
			t.Fatalf("%s: RunBatch returned %d values, want %d rows of %d", k.Name, len(got), n, len(res.Datapath.Outputs))
		}
		for i := range want {
			for j := range want[i] {
				if got[j*n+i] != want[i][j] {
					t.Fatalf("%s: iteration %d output %d: RunBatch %d, Run %d",
						k.Name, i, j, got[j*n+i], want[i][j])
				}
			}
		}
	}
}

// TestRunBatchFaultParity: a divide kernel with exactly one zero
// divisor must fault in both paths on the same cycle index and leave
// identical cycle counts (the aborted cycle is discarded in both).
func TestRunBatchFaultParity(t *testing.T) {
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
		serial := dp.NewSim(res.Datapath)
		_, serr := serial.Run(iters)
		batch := dp.NewSim(res.Datapath)
		_, berr := batch.RunBatch(columns(iters, 2), len(iters))
		if serr == nil || berr == nil {
			t.Fatalf("zeroAt=%d: expected both paths to fault (serial %v, batch %v)", zeroAt, serr, berr)
		}
		if serial.Cycle() != batch.Cycle() {
			t.Fatalf("zeroAt=%d: fault cycle mismatch: serial aborted at cycle %d, batch at %d",
				zeroAt, serial.Cycle(), batch.Cycle())
		}
	}
}

// TestStepNZeroAllocs: the batch steady state must not allocate, for
// both a feedback-free kernel (pure op-major path) and a feedback
// kernel (lane-serialized cone).
func TestStepNZeroAllocs(t *testing.T) {
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		sim := dp.NewSim(res.Datapath)
		const n = 64
		in := make([]int64, n*len(res.Datapath.Inputs))
		for i := range in {
			in[i] = int64(i%251 + 1)
		}
		// Warm-up grows the lane scratch and output buffer once.
		if _, err := sim.StepN(in, n); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sim.StepN(in, n); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if _, err := sim.DrainN(8); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: StepN/DrainN steady state allocates %.1f allocs/op, want 0", k.Name, allocs)
		}
	}
}

// TestRunAllocsBounded: Run must allocate only its two result buffers
// (the row headers and the flat backing), never per iteration.
func TestRunAllocsBounded(t *testing.T) {
	res, err := bench.DCT().Compile()
	if err != nil {
		t.Fatal(err)
	}
	sim := dp.NewSim(res.Datapath)
	iters := make([][]int64, 200)
	for i := range iters {
		row := make([]int64, len(res.Datapath.Inputs))
		for j := range row {
			row[j] = int64(i + j)
		}
		iters[i] = row
	}
	allocs := testing.AllocsPerRun(20, func() {
		sim.Reset()
		if _, err := sim.Run(iters); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Run allocates %.1f allocs/op, want at most 2 (result headers + flat backing)", allocs)
	}
}

// TestDrainNQuietSkip drives the schedule the DrainN fixed-point skip
// exists for — valid iterations, a bubble run long enough to go quiet,
// then valid iterations again before the skipped bubbles have left the
// pipeline — on the Table 1 kernels and on deep divider pipelines with
// nonzero divisors. The skipped bubbles must still read as bubbles
// (a divider fed their zero inputs must not trap, a latch must not
// commit them), and every output row must match the serial core.
func TestDrainNQuietSkip(t *testing.T) {
	var ds []*dp.Datapath
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		ds = append(ds, res.Datapath)
	}
	rng := rand.New(rand.NewSource(77))
	for ki := 0; ki < 12; ki++ {
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 4+rng.Intn(4), 1+rng.Intn(2), true)
		res, err := core.CompileSource(src, "k", core.Options{Optimize: ki%2 == 0, PeriodNs: 1 + float64(ki%3)})
		if err != nil {
			t.Fatalf("kernel %d: %v\n%s", ki, err, src)
		}
		ds = append(ds, res.Datapath)
	}
	// A divider chain whose pipeline goes quiet before its valid ring
	// has wrapped: the first skipped bubbles sit in slots still marked
	// with the last valid iterations, and dividers at every depth see
	// their zero divisors once valid work resumes.
	chain := `
void k(int x, int y, int* o) {
	int a; int b; int c; int d;
	a = x / y;
	b = a * 3 + x;
	c = b / y;
	d = c * 5 - b;
	*o = d / y + c;
}
`
	res, err := core.CompileSource(chain, "k", core.Options{Optimize: true, PeriodNs: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds = append(ds, res.Datapath)
	for di, d := range ds {
		for _, b := range dp.Backends() {
			bat, ref := dp.NewSimWith(d, b), dp.NewSim(d)
			inW, outW := len(d.Inputs), len(d.Outputs)
			st := d.Stages
			for step, n := range []int{7, 3*st + 9, 1, 2*st + 5, 5, st + 2, 9, 2*st - 1, 3, 2 * st, 2, 2*st + 1, 4, 2*st + 2, 9, 4*st + 3} {
				bOut := make([]int64, n*outW)
				rOut := make([]int64, n*outW)
				var bErr, rErr error
				if step%2 == 0 {
					in := make([]int64, n*inW)
					for j := range in {
						in[j] = 1 + rng.Int63n(1<<10)
					}
					var o []int64
					o, bErr = bat.StepN(in, n)
					copy(bOut, o)
					rErr = stepSerial(ref, in, n, inW, outW, rOut)
				} else {
					var o []int64
					o, bErr = bat.DrainN(n)
					copy(bOut, o)
					rErr = drainSerial(ref, n, outW, rOut)
				}
				name := fmt.Sprintf("datapath %d [%v] step %d", di, b, step)
				if bErr != nil || rErr != nil {
					t.Fatalf("%s: unexpected fault (batch %v, serial %v)", name, bErr, rErr)
				}
				sameRows(t, name, bOut, rOut, n, outW, n)
				if bat.Cycle() != ref.Cycle() {
					t.Fatalf("%s: cycle %d, serial %d", name, bat.Cycle(), ref.Cycle())
				}
			}
			for v, rv := range ref.State {
				if bat.State[v] != rv {
					t.Fatalf("datapath %d [%v]: feedback %s: batch %d, serial %d", di, b, v.Name, bat.State[v], rv)
				}
			}
		}
	}
}
