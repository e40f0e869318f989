package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// servesweep.go verifies the rocccserve deployment shape end to end:
// every Table 1 kernel served over the TCP protocol must return output
// windows, feedback latches, cycle counts and mid-stream faults
// bit-identical to a serial netlist.System.Run of the same streams. The
// sweep doubles as the serve acceptance harness: feedback kernels
// (mul_acc) and fault cases (a divider fed a zero on a valid iteration)
// are part of the matrix, not separate tests.

// ServeRow is one kernel's served-vs-serial verification result.
type ServeRow struct {
	Kernel  string
	Streams int
	// Faults counts streams that (correctly) aborted with a typed
	// dp.FaultError carrying the serial run's abort cycle.
	Faults int
	// Cycles is the total clock count across served streams.
	Cycles int64
	// Elapsed is the wall-clock time of the served batch.
	Elapsed time.Duration
	// Skipped is non-empty for Table 1 rows that cannot stream (the
	// fully-unrolled bit-level kernels and LUTs have no loop nest).
	Skipped string
}

// serveSweepSource is the fault kernel: an elementwise divide whose
// drain bubbles would fault without poison semantics, and whose planted
// zero divisor on a valid iteration must abort with the serial cycle.
const serveSweepSource = `
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

// ServeSweep starts an in-memory rocccserve with every Table 1 kernel
// (plus the fault divider), streams `streams` random input streams per
// kernel through the TCP protocol, and verifies each response against a
// serial System.Run of the same inputs. Any divergence — a value, a
// cycle count, a feedback latch, a fault's abort cycle or message — is
// an error.
func ServeSweep(streams int) ([]ServeRow, error) {
	if streams <= 0 {
		streams = 8
	}
	specs := serve.Table1Specs()
	specs = append(specs, serve.KernelSpec{
		Name: "divide_fault", Source: serveSweepSource, Func: "divide",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1},
	})

	srv := serve.NewServer(0)
	for _, spec := range specs {
		if err := srv.Register(spec); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	conn, err := serve.DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	var rows []ServeRow
	for _, spec := range specs {
		row, err := serveSweepKernel(conn, spec, streams)
		if err != nil {
			return nil, fmt.Errorf("exp: serve sweep %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// serveSweepKernel checks one kernel: serial ground truth first, then
// the served batch against it.
func serveSweepKernel(conn *serve.Conn, spec serve.KernelSpec, streams int) (ServeRow, error) {
	row := ServeRow{Kernel: spec.Name, Streams: streams}
	res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
	if err != nil {
		return row, err
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, spec.Config)
	if err != nil {
		// Combinational Table 1 rows cannot stream; the served request
		// must refuse them with the same diagnosis.
		if jerr := conn.Run(spec.Name, []netlist.Job{{}}); jerr == nil ||
			!strings.Contains(jerr.Error(), "no loop nest") {
			return row, fmt.Errorf("served request for combinational kernel returned %v, want a no-loop-nest refusal", jerr)
		}
		row.Streams = 0
		row.Skipped = "combinational (no loop nest)"
		return row, nil
	}

	// Build the streams; the fault kernel plants one zero divisor on a
	// valid iteration in every odd stream.
	jobs := make([]netlist.Job, streams)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(i)*104729 + 7))
		inputs := map[string][]int64{}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for j := range vals {
				vals[j] = rng.Int63n(255) - 128
			}
			if spec.Name == "divide_fault" && w.Arr.Name == "B" {
				for j := range vals {
					vals[j] = rng.Int63n(97) + 1
				}
				if i%2 == 1 {
					vals[rng.Intn(len(vals))] = 0
				}
			}
			inputs[w.Arr.Name] = vals
		}
		jobs[i] = netlist.Job{Inputs: inputs}
	}

	// Serial ground truth: one System, Reset per stream.
	type ref struct {
		outputs   map[string][]int64
		feedbacks map[string]int64
		cycles    int
		fault     *dp.FaultError
	}
	refs := make([]ref, streams)
	for i := range jobs {
		sys.Reset()
		for name, vals := range jobs[i].Inputs {
			if err := sys.LoadInput(name, vals); err != nil {
				return row, err
			}
		}
		sim, err := sys.Run()
		if err != nil {
			var fe *dp.FaultError
			if !errors.As(err, &fe) {
				return row, fmt.Errorf("serial stream %d: %w", i, err)
			}
			refs[i].fault = fe
			continue
		}
		refs[i].cycles = sys.Cycles()
		refs[i].outputs = map[string][]int64{}
		for _, w := range res.Kernel.Writes {
			out, err := sys.Output(w.Arr.Name)
			if err != nil {
				return row, err
			}
			refs[i].outputs[w.Arr.Name] = out
		}
		if len(res.Datapath.Feedbacks) > 0 {
			refs[i].feedbacks = map[string]int64{}
			for _, fb := range res.Datapath.Feedbacks {
				if v, ok := sim.FeedbackByName(fb.State.Name); ok {
					refs[i].feedbacks[fb.State.Name] = v
				}
			}
		}
	}

	// Served batch over the live TCP connection.
	start := time.Now()
	runErr := conn.Run(spec.Name, jobs)
	row.Elapsed = time.Since(start)
	expectFault := false
	for i := range refs {
		if refs[i].fault != nil {
			expectFault = true
		}
	}
	if runErr != nil && !expectFault {
		return row, runErr
	}

	// Bit-exact comparison, stream by stream.
	for i := range jobs {
		r, job := &refs[i], &jobs[i]
		if r.fault != nil {
			var fe *dp.FaultError
			if !errors.As(job.Err, &fe) {
				return row, fmt.Errorf("stream %d: served %v, serial faulted with %v", i, job.Err, r.fault)
			}
			if fe.Cycle != r.fault.Cycle || fe.Op != r.fault.Op || fe.Msg != r.fault.Msg {
				return row, fmt.Errorf("stream %d: served fault %+v, serial fault %+v", i, fe, r.fault)
			}
			row.Faults++
			continue
		}
		if job.Err != nil {
			return row, fmt.Errorf("stream %d: served error %v, serial ran clean", i, job.Err)
		}
		if job.Cycles != r.cycles {
			return row, fmt.Errorf("stream %d: served %d cycles, serial %d", i, job.Cycles, r.cycles)
		}
		row.Cycles += int64(job.Cycles)
		for name, want := range r.outputs {
			got := job.Outputs[name]
			if len(got) != len(want) {
				return row, fmt.Errorf("stream %d: %s has %d elements served, %d serial", i, name, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					return row, fmt.Errorf("stream %d: %s[%d] = %d served, %d serial", i, name, j, got[j], want[j])
				}
			}
		}
		for name, want := range r.feedbacks {
			if got := job.Feedbacks[name]; got != want {
				return row, fmt.Errorf("stream %d: feedback %s = %d served, %d serial", i, name, got, want)
			}
		}
	}
	return row, nil
}

// FormatServeSweep renders the served-vs-serial verification table.
func FormatServeSweep(rows []ServeRow) string {
	var b strings.Builder
	b.WriteString("Serve sweep: rocccserve TCP responses vs serial netlist.System.Run\n")
	fmt.Fprintf(&b, "%-15s %8s %7s %10s %10s  %s\n",
		"kernel", "streams", "faults", "cycles", "elapsed", "verdict")
	for _, r := range rows {
		if r.Skipped != "" {
			fmt.Fprintf(&b, "%-15s %8s %7s %10s %10s  skipped: %s\n",
				r.Kernel, "-", "-", "-", "-", r.Skipped)
			continue
		}
		fmt.Fprintf(&b, "%-15s %8d %7d %10d %10s  bit-identical\n",
			r.Kernel, r.Streams, r.Faults, r.Cycles, r.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}
