package sim

// ParkEverySleep turns the in-place sleep off on e: every Sleep, WaitUntil
// and Yield pushes its wakeup and parks until RunUntil pops it. The
// differential tests run one program both ways.
func (e *Env) ParkEverySleep() { e.parkAll = true }
