//go:build !dpverify

package netlist

import (
	"roccc/internal/dp"
	"roccc/internal/hir"
)

// sysVerifyHook is a no-op in default builds; `-tags dpverify` swaps in
// the verifying hook (verify_hook_on.go).
func sysVerifyHook(p *sysPlan, k *hir.Kernel, d *dp.Datapath) {}

// streakVerifyHook is a no-op in default builds; `-tags dpverify` checks
// the read side after every bulk advance (verify_hook_on.go).
func streakVerifyHook(s *System) {}
