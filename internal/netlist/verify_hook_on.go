//go:build dpverify

package netlist

import (
	"strings"

	"roccc/internal/dp"
	"roccc/internal/hir"
)

// sysVerifyHook runs the static system-plan verifier at plan-cache time
// and panics on any violation: under `-tags dpverify` a malformed plan
// can never reach a Run cycle.
func sysVerifyHook(p *sysPlan, k *hir.Kernel, d *dp.Datapath) {
	vs := verifySysPlan(p, k, d)
	if len(vs) == 0 {
		return
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	panic("dpverify: " + k.Name + ": " + strings.Join(msgs, "; "))
}

// streakVerifyHook checks the read side after every bulk advance and
// panics on any violation: under `-tags dpverify` each ring's live span
// must equal its read BRAM over the same indices, and each read
// generator must have issued exactly the elements its buffer holds.
func streakVerifyHook(s *System) {
	if vs := verifyReadSources(s); len(vs) != 0 {
		panic("dpverify: " + s.Kernel.Name + ": " + vs[0].String())
	}
}
