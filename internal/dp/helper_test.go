package dp_test

import (
	"roccc/internal/core"
	"roccc/internal/hir"
	"roccc/internal/ssa"
)

// ssaExecGraph runs the kernel's SSA graph in software (soft-node
// semantics) for one iteration.
func ssaExecGraph(res *core.Result, in []int64) ([]int64, error) {
	state := map[*hir.Var]int64{}
	for _, fb := range res.Kernel.Feedback {
		state[fb.Var] = fb.Init
	}
	return ssa.Exec(res.Graph, in, state)
}

// columns lays per-iteration input rows out as the column-major block
// StepN and RunBatch take: column i holds port i's value for every row.
func columns(rows [][]int64, width int) []int64 {
	n := len(rows)
	out := make([]int64, n*width)
	for r, row := range rows {
		for i, v := range row {
			out[i*n+r] = v
		}
	}
	return out
}
