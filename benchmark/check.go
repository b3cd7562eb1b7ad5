package main

import (
	"fmt"
	"strings"
)

// checkSeconds sizes the determinism gate: 1/20 of the full op counts.
const checkSeconds = refSeconds / 20.0

// checkWorkload runs sp twice on seed and once on seed+1, sized for seconds,
// and the layer drivers twice with calls calls each. It fails unless the two
// same-seed runs agree on every virtual-clock result and counter-derived
// metric, the other seed disagrees, and no operation failed.
func checkWorkload(sp *spec, seed int64, seconds float64, calls int) error {
	ops := opsFor(sp, seconds)
	var ps [3]*pass
	for i, s := range []int64{seed, seed, seed + 1} {
		p, err := runPass(sp, s, ops, "")
		if err != nil {
			return err
		}
		ps[i] = p
	}
	if !sameVirtual(ps[0], ps[1]) {
		return fmt.Errorf("%s: two passes on seed %d differ on the virtual clock", sp.name, seed)
	}
	if sameVirtual(ps[0], ps[2]) {
		return fmt.Errorf("%s: seeds %d and %d give the same run", sp.name, seed, seed+1)
	}
	if f := ps[0].failed() + ps[2].failed(); f > 0 {
		return fmt.Errorf("%s: %d operations failed", sp.name, f)
	}
	ia, ib := isoMetrics(sp, seed, calls), isoMetrics(sp, seed, calls)
	for name, a := range ia {
		host := a.Unit == "ns" || strings.Contains(name, "allocs")
		if b := ib[name]; !host && a != b {
			return fmt.Errorf("%s: %s is %v then %v on seed %d", sp.name, name, a.Value, b.Value, seed)
		}
	}
	fmt.Printf("%-12s deterministic: %d ops, %d per-pass layer metrics, %d layer-driver metrics\n", sp.name, ps[0].Ops, len(ps[0].Layers), len(ia))
	return nil
}

// checkDeterminism is the -check gate: every workload at checkSeconds.
func checkDeterminism(seed int64) error {
	for _, sp := range specs {
		if err := checkWorkload(sp, seed, checkSeconds, isoCalls); err != nil {
			return err
		}
	}
	return nil
}
