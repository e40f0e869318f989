package load

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the machine-readable harness output: the run's shape, the
// scenario profile, and the full knee-search trace. cmd/cigate's load
// gate group consumes it, and the run's headline numbers fold into the
// BENCH_<sha>.json trajectory.
type Report struct {
	Addr    string `json:"addr"`
	CPUs    int    `json:"cpus"`
	Backend string `json:"backend"`

	Dist    string  `json:"dist"`
	Conns   int     `json:"conns"`
	Slots   int     `json:"slots_per_conn"`
	Workers int     `json:"workers"`
	StepSec float64 `json:"step_sec"`

	StreamsPerRequest  int     `json:"streams_per_request"`
	FaultFraction      float64 `json:"fault_fraction"`
	DisconnectFraction float64 `json:"disconnect_fraction"`
	Mix                []Mix   `json:"mix"`

	Knee *KneeResult `json:"knee"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Gate evaluates the report against the load gate contract and returns
// the violations (empty = pass):
//
//   - a knee was found and the SLO held at it;
//   - below the knee every step had zero non-shed errors (sheds are
//     backpressure, not failures — they have their own check);
//   - at and past the knee the shed rate rises monotonically instead of
//     collapsing;
//   - on machines with at least minCPU cores, the knee clears floorRPS
//     (the CPU-conditioned p99-ceiling-at-rate gate: knee >= floor
//     means p99 met the SLO at the floor rate). Smaller machines skip
//     the floor but still gate the shape checks.
func (r *Report) Gate(minCPU int, floorRPS float64) []string {
	kr := r.Knee
	if kr == nil {
		return []string{"load: report carries no knee result"}
	}
	var v []string
	if kr.KneeRPS <= 0 {
		v = append(v, fmt.Sprintf("load: no knee found (even the starting rate broke the %.0fms p99 SLO)", kr.SLOMs))
	}
	if !kr.ShedMonotonic {
		v = append(v, "load: shed rate is not monotonic past the knee (the fleet collapsed instead of shedding)")
	}
	for _, s := range kr.Steps {
		if s.Rate <= kr.KneeRPS && s.Errors > 0 {
			v = append(v, fmt.Sprintf("load: %d non-shed errors at %.0f rps, below the %.0f rps knee", s.Errors, s.Rate, kr.KneeRPS))
		}
	}
	if r.CPUs >= minCPU && floorRPS > 0 && kr.KneeRPS < floorRPS {
		v = append(v, fmt.Sprintf("load: knee %.0f rps under the %.0f rps floor (floor applies at this CPU count)",
			kr.KneeRPS, floorRPS))
	}
	return v
}
