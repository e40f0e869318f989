package netlist

// verify_test.go exercises the system-plan verifier two ways: a real
// compiled System must verify clean, and targeted corruptions of a
// plan copy must each be rejected with the right named invariant.

import (
	"testing"

	"roccc/internal/core"
	"roccc/internal/dp"
)

func assertSysInvariant(t *testing.T, vs []dp.Violation, invariant string) {
	t.Helper()
	if invariant == "" {
		if len(vs) != 0 {
			t.Fatalf("want a clean verification, got %d violations, first: %v", len(vs), vs[0])
		}
		return
	}
	for _, v := range vs {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation in %v", invariant, vs)
}

// planCopy deep-copies the cached plan so corruptions never leak into
// the kernel's PlanCache (other tests share it).
func planCopy(p *sysPlan) *sysPlan {
	c := *p
	c.reads = append([]readPlan(nil), p.reads...)
	for i := range c.reads {
		c.reads[i].route = append([]int32(nil), p.reads[i].route...)
		c.reads[i].cols = append([]tapCol(nil), p.reads[i].cols...)
	}
	c.writes = append([]writePlan(nil), p.writes...)
	c.ivs = append([]ivPlan(nil), p.ivs...)
	c.scalarIn = append([]int(nil), p.scalarIn...)
	c.from = append([]int64(nil), p.from...)
	c.step = append([]int64(nil), p.step...)
	c.trips = append([]int64(nil), p.trips...)
	return &c
}

func TestVerifySystemClean(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	assertSysInvariant(t, VerifySystem(sys), "")
	assertSysInvariant(t, verifySysPlan(sys.plan, res.Kernel, sys.Datapath), "")
}

func TestVerifySysPlanCorruptions(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	k, d := res.Kernel, sys.Datapath

	cases := []struct {
		name      string
		invariant string
		mut       func(p *sysPlan)
	}{
		{"trip count drift", "system/nest", func(p *sysPlan) { p.trips[0]++ }},
		{"stale total", "system/nest", func(p *sysPlan) { p.total *= 2 }},
		{"latency mismatch", "system/harvest-ring", func(p *sysPlan) { p.latency++ }},
		{"fed ring too shallow", "system/harvest-ring", func(p *sysPlan) { p.fedMask = 0 }},
		{"route past input ports", "system/routing", func(p *sysPlan) {
			p.reads[0].route[0] = int32(len(d.Inputs))
		}},
		{"scalar route past input ports", "system/routing", func(p *sysPlan) {
			p.scalarIn = append(p.scalarIn, len(d.Inputs))
		}},
		{"column at the wrong tap offset", "system/column-routing", func(p *sysPlan) { p.reads[0].cols[1].off++ }},
		{"column feeding the wrong input", "system/column-routing", func(p *sysPlan) {
			p.reads[0].cols[0].in, p.reads[0].cols[1].in = p.reads[0].cols[1].in, p.reads[0].cols[0].in
		}},
		{"routed tap without a column", "system/column-routing", func(p *sysPlan) { p.reads[0].cols = p.reads[0].cols[1:] }},
		{"tap stride drift", "system/column-routing", func(p *sysPlan) { p.reads[0].stride = 2 }},
		{"streak bound past the strip", "system/streak-bound", func(p *sysPlan) { p.streakMax++ }},
		{"write-run stride drift", "system/write-run", func(p *sysPlan) { p.writes[0].stride++ }},
		{"write runs capped wrongly", "system/write-run", func(p *sysPlan) { p.writes[0].runMax = 1 }},
		{"needClear dropped", "system/need-clear", func(p *sysPlan) {
			// Unroute a tap so one input port goes uncovered while the
			// plan still claims no clearing is needed.
			p.reads[0].route[0] = -1
			p.needClear = false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := planCopy(sys.plan)
			tc.mut(p)
			assertSysInvariant(t, verifySysPlan(p, k, d), tc.invariant)
		})
	}
}

// TestVerifyWriteRunCollision: a plan for colliding write elements must
// cap its runs at one iteration; an uncapped copy is rejected.
func TestVerifyWriteRunCollision(t *testing.T) {
	src := `
int A[20];
int C[18];
void k() {
	int i;
	for (i = 0; i < 16; i++) {
		C[i] = A[i] + A[i+1];
		C[i+1] = A[i] - A[i+2];
	}
}
`
	res, sys := buildSystem(t, src, "k", core.DefaultOptions(), Config{BusElems: 1})
	assertSysInvariant(t, VerifySystem(sys), "")
	p := planCopy(sys.plan)
	p.writes[0].runMax = p.total
	assertSysInvariant(t, verifySysPlan(p, res.Kernel, sys.Datapath), "system/write-run")
}

// TestVerifyReadSources: after a run the ring live span must equal the
// read BRAM and each generator must have issued what its buffer holds;
// corrupting either trips buffer/ring-source.
func TestVerifyReadSources(t *testing.T) {
	_, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	in := make([]int64, len(sys.readBRAMs[0].Data))
	for i := range in {
		in[i] = int64(3*i - 7)
	}
	if err := sys.LoadInput(sys.plan.reads[0].arrName, in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	assertSysInvariant(t, verifyReadSources(sys), "")
	sys.readBRAMs[0].Data[len(in)-1]++ // the array no longer matches what was streamed
	assertSysInvariant(t, verifyReadSources(sys), "buffer/ring-source")
	sys.readBRAMs[0].Data[len(in)-1]--
	sys.readGens[0].Reset() // generator position drifts from the buffer's fetch count
	assertSysInvariant(t, verifyReadSources(sys), "buffer/ring-source")
}
