package exp

import (
	"fmt"
	"strings"

	"roccc/internal/bench"
	"roccc/internal/hir"
	"roccc/internal/netlist"
)

// speedup.go reproduces the paper's motivating claim (§1): CSoC/FPGA
// implementations "have been shown to achieve very large speedups,
// ranging from 10x to 100x, over microprocessors" — quantified in the
// authors' companion study [17] by comparing kernel execution on a
// superscalar processor against the streaming circuit.
//
// The reproduction uses a simple embedded-CPU model (the CSoC's
// integrated processor class): a single-issue core at 400 MHz executing
// the kernel's dynamic operation count with per-class CPI, including
// load/store instructions the FPGA's smart buffer amortizes away.

// CPUModel is the scalar-processor cost model.
type CPUModel struct {
	Name     string
	ClockMHz float64
	// CPIs per dynamic instruction class.
	CPIALU    float64
	CPIMul    float64
	CPILoad   float64
	CPIStore  float64
	CPIBranch float64
}

// EmbeddedCPU models the CSoC-integrated processor class of the paper's
// platforms (Triscend A7 / Altera ARM9-era cores).
var EmbeddedCPU = CPUModel{
	Name: "embedded-risc-400MHz", ClockMHz: 400,
	CPIALU: 1, CPIMul: 4, CPILoad: 2.5, CPIStore: 2, CPIBranch: 2,
}

// SpeedupRow is one kernel's CPU-vs-FPGA comparison.
type SpeedupRow struct {
	Kernel     string
	CPUCycles  float64
	CPUMicros  float64
	FPGACycles int
	FPGAMicros float64
	Speedup    float64
}

// kernelDynamicCost estimates the CPU's dynamic cost for one kernel
// iteration from the data-path function plus the loop's memory traffic.
func kernelDynamicCost(k *hir.Kernel, m CPUModel) float64 {
	alu, mul := 0.0, 0.0
	hir.VisitExprs(k.DP.Body, func(e hir.Expr) hir.Expr {
		switch x := e.(type) {
		case *hir.Bin:
			if x.Op == hir.OpMul || x.Op == hir.OpDiv || x.Op == hir.OpRem {
				mul++
			} else {
				alu++
			}
		case *hir.Un, *hir.Sel:
			alu++
		}
		return e
	})
	loads, stores := 0.0, 0.0
	for _, w := range k.Reads {
		// Without the smart buffer's reuse, the CPU re-loads the window
		// per iteration (the paper's Streams-C discussion: data reuse
		// must be hand-written).
		loads += float64(len(w.Elems))
	}
	for _, w := range k.Writes {
		stores += float64(len(w.Elems))
	}
	// Loop overhead: index update, compare, branch.
	overhead := 2*m.CPIALU + m.CPIBranch
	return alu*m.CPIALU + mul*m.CPIMul + loads*m.CPILoad + stores*m.CPIStore + overhead
}

// Speedups compares the streaming Table 1 kernels (FIR, DCT, wavelet —
// the ones with memory-resident data) on the CPU model against the full
// FPGA system simulation.
func Speedups() ([]SpeedupRow, error) {
	var rows []SpeedupRow
	for _, k := range []bench.Kernel{bench.FIR(), bench.DCT(), bench.Wavelet()} {
		res, rep, err := SynthesizeKernel(k)
		if err != nil {
			return nil, err
		}
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{
			BusElems: k.BusElems,
			Scalars:  scalarsFor(k),
		})
		if err != nil {
			return nil, err
		}
		for _, w := range res.Kernel.Reads {
			if err := sys.LoadInput(w.Arr.Name, make([]int64, w.Arr.Len())); err != nil {
				return nil, err
			}
		}
		if _, err := sys.Run(); err != nil {
			return nil, err
		}
		iters := float64(res.Kernel.Nest.TotalIterations())
		cpuCycles := kernelDynamicCost(res.Kernel, EmbeddedCPU) * iters
		row := SpeedupRow{
			Kernel:     k.Name,
			CPUCycles:  cpuCycles,
			CPUMicros:  cpuCycles / EmbeddedCPU.ClockMHz,
			FPGACycles: sys.Cycles(),
			FPGAMicros: float64(sys.Cycles()) / rep.ClockMHz,
		}
		row.Speedup = row.CPUMicros / row.FPGAMicros
		rows = append(rows, row)
	}
	return rows, nil
}

func scalarsFor(k bench.Kernel) map[string]int64 {
	if k.Scalars != nil {
		return k.Scalars
	}
	return map[string]int64{}
}

// FormatSpeedups renders the speedup table.
func FormatSpeedups(rows []SpeedupRow) string {
	var b strings.Builder
	b.WriteString("FPGA speedup over an embedded processor (§1 claim: 10x-100x)\n\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %14s %12s %9s\n",
		"Kernel", "CPU cycles", "CPU µs", "FPGA cycles", "FPGA µs", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.0f %12.2f %14d %12.2f %8.1fx\n",
			r.Kernel, r.CPUCycles, r.CPUMicros, r.FPGACycles, r.FPGAMicros, r.Speedup)
	}
	return b.String()
}
