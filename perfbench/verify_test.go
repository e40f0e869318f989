package main

import (
	"errors"
	"testing"

	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// divideServed prepares the self-contained divide kernel with one clean
// and one planted-fault template.
func divideServed(t *testing.T) *servedKernel {
	t.Helper()
	sks, err := prepareServed([]*kernelDef{divideKernel()}, rng(3), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sks[0]
}

func TestVerificationCatchesCorruptedOutput(t *testing.T) {
	sk := divideServed(t)
	var job netlist.Job
	if _, err := runSystem(sk.res, sk.k.bus, sk.inputs[0], &job); err != nil {
		t.Fatal(err)
	}
	if err := sk.refs[0].check(&job); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	job.Outputs["Q"][5]++
	if err := sk.refs[0].check(&job); err == nil {
		t.Fatal("corrupted output element accepted")
	}
	job.Outputs["Q"][5]--
	delete(job.Outputs, "Q")
	if err := sk.refs[0].check(&job); err == nil {
		t.Fatal("missing output array accepted")
	}
}

func TestVerificationCatchesWrongFault(t *testing.T) {
	sk := divideServed(t)
	var job netlist.Job
	if _, err := runSystem(sk.res, sk.k.bus, sk.faultInputs[0], &job); err != nil {
		t.Fatal(err)
	}
	if err := sk.faultRefs[0].check(&job); err != nil {
		t.Fatalf("correct fault rejected: %v", err)
	}
	fe := asFault(job.Err)
	fe.Cycle++
	if err := sk.faultRefs[0].check(&job); err == nil {
		t.Fatal("fault at the wrong cycle accepted")
	}
	job.Err = nil
	if err := sk.faultRefs[0].check(&job); err == nil {
		t.Fatal("a result where a fault was planted accepted")
	}
	if err := sk.refs[0].check(&netlist.Job{Err: &dp.FaultError{Op: "div", Cycle: 3}}); err == nil {
		t.Fatal("a fault where a result was expected accepted")
	}
}

// TestCompletionClassifiesFailures pins the accounting: a result that
// differs from the reference is a wrong output (the run exits non-zero),
// while an error such as a load shed is a failure counted in ok_frac.
func TestCompletionClassifiesFailures(t *testing.T) {
	sk := divideServed(t)
	good := netlist.Job{}
	if _, err := runSystem(sk.res, sk.k.bus, sk.inputs[0], &good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Outputs = map[string][]int64{"Q": append([]int64(nil), good.Outputs["Q"]...)}
	bad.Outputs["Q"][0] ^= 1

	var cm completion
	cm.verify("divide", []netlist.Job{good}, sk.refs, nil)
	if cm.failed || cm.wrong != "" {
		t.Fatalf("correct stream: failed=%v wrong=%q", cm.failed, cm.wrong)
	}
	cm = completion{}
	cm.verify("divide", []netlist.Job{bad}, sk.refs, nil)
	if !cm.failed || cm.wrong == "" {
		t.Fatalf("corrupted stream: failed=%v wrong=%q, want a wrong output", cm.failed, cm.wrong)
	}
	cm = completion{}
	shed := netlist.Job{Err: &serve.BusyError{Kernel: "divide"}}
	cm.verify("divide", []netlist.Job{shed}, sk.refs, errors.New("busy"))
	if !cm.failed || cm.wrong != "" {
		t.Fatalf("shed stream: failed=%v wrong=%q, want a failure that is not a wrong output", cm.failed, cm.wrong)
	}
}
