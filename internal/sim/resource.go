package sim

// Resource is a counting semaphore over virtual time. Use it to model
// bounded concurrency: device queue depth, server worker slots, bounded
// buffer pools.
type Resource struct {
	env     *Env
	total   int
	inUse   int
	waiters ring[rwaiter]
}

type rwaiter struct {
	w *wakeup
	n int
}

// NewResource returns a semaphore with n units.
func NewResource(env *Env, n int) *Resource {
	if n <= 0 {
		panic("sim: Resource needs at least one unit")
	}
	return &Resource{env: env, total: n}
}

// Total returns the configured number of units.
func (r *Resource) Total() int { return r.total }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// TryAcquire takes one unit without blocking; reports success.
func (r *Resource) TryAcquire() bool { return r.TryAcquireN(1) }

// TryAcquireN takes n units without blocking; reports success.
func (r *Resource) TryAcquireN(n int) bool {
	if n > r.total {
		panic("sim: acquiring more units than the Resource holds")
	}
	if r.inUse+n > r.total || r.waiters.len() > 0 {
		return false
	}
	r.inUse += n
	return true
}

// Acquire blocks the process until one unit is available, then takes it.
// Requests are served FIFO.
func (r *Resource) Acquire(p *Proc) { r.AcquireN(p, 1) }

// AcquireN blocks the process until n units are available, then takes them.
func (r *Resource) AcquireN(p *Proc, n int) {
	if r.TryAcquireN(n) {
		return
	}
	p.mustBeRunning("Resource.Acquire")
	r.waiters.push(rwaiter{w: r.env.newWakeup(p, nil, 0), n: n})
	p.park()
}

// Release returns one unit, waking the next eligible waiter.
func (r *Resource) Release() { r.ReleaseN(1) }

// ReleaseN returns n units, waking eligible waiters FIFO.
func (r *Resource) ReleaseN(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource released more than acquired")
	}
	for r.waiters.len() > 0 {
		if r.inUse+r.waiters.peek().n > r.total {
			return // strict FIFO: head blocks the line
		}
		rw := r.waiters.pop()
		r.inUse += rw.n
		r.env.fireWakeup(rw.w)
	}
}
