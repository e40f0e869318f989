package load

import (
	"strings"
	"testing"
)

func knee(rps float64) *KneeResult {
	return &KneeResult{
		KneeRPS:       rps,
		SLOMs:         100,
		ShedMonotonic: true,
		Steps:         []StepResult{{Rate: rps, P99Ms: 12}},
	}
}

// TestGateKnee pins the load gate contract: no knee result, no knee
// found, a collapsing shed rate and errors below the knee are each a
// violation, and a clean report passes.
func TestGateKnee(t *testing.T) {
	r := &Report{CPUs: 8}
	if v := r.Gate(4, 100); len(v) != 1 || !strings.Contains(v[0], "no knee result") {
		t.Fatalf("violations = %v", r.Gate(4, 100))
	}
	r.Knee = knee(200)
	if v := r.Gate(4, 100); len(v) != 0 {
		t.Fatalf("clean report flagged: %q", v)
	}
	r.Knee.ShedMonotonic = false
	if v := r.Gate(4, 0); len(v) != 1 || !strings.Contains(v[0], "shed rate is not monotonic") {
		t.Fatalf("violations = %q, want shed-shape violation", v)
	}
	r.Knee = knee(200)
	r.Knee.Steps[0].Errors = 3
	if v := r.Gate(4, 0); len(v) != 1 || !strings.Contains(v[0], "non-shed errors") {
		t.Fatalf("violations = %q, want below-knee error violation", v)
	}
	r.Knee = knee(0)
	r.Knee.Steps = nil
	if v := r.Gate(4, 0); len(v) != 1 || !strings.Contains(v[0], "no knee found") {
		t.Fatalf("violations = %q, want no-knee violation", v)
	}
}

// TestGateFloorIsCPUConditioned: the knee rate floor gates only on
// machines with at least minCPU cores; smaller ones keep the shape
// checks alone.
func TestGateFloorIsCPUConditioned(t *testing.T) {
	r := &Report{CPUs: 8, Knee: knee(80)}
	v := r.Gate(4, 100)
	if len(v) != 1 || !strings.Contains(v[0], "under the 100 rps floor") {
		t.Fatalf("violations = %q, want one floor violation", v)
	}
	r.CPUs = 2
	if v := r.Gate(4, 100); len(v) != 0 {
		t.Fatalf("small machine gated the floor: %q", v)
	}
}
