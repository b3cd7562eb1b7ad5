package bench

import "testing"

// TestGrayfailFaultLegsFire checks the injection's ground truth: in every
// cell that limps the node, each fault leg it arms — the slow link and the
// stalled storage workers — really bit, and the healthy cell saw neither. A
// leg that never fires limps nothing, and the cells would compare defenses
// against a fault that is not there.
func TestGrayfailFaultLegsFire(t *testing.T) {
	if testing.Short() {
		t.Skip("grayfail experiment is slow")
	}
	r := runExp(t, "grayfail", Options{Ops: 300})
	for _, def := range grayDefenses {
		for _, leg := range []string{"net_slowed", "worker_stalls"} {
			name := def.name + "." + leg
			switch v := metric(t, r, name); {
			case def.slow && v <= 0:
				t.Errorf("%s = %v: the leg never fired in a limping cell", name, v)
			case !def.slow && v != 0:
				t.Errorf("%s = %v in a cell that arms no fault", name, v)
			}
		}
	}
}
