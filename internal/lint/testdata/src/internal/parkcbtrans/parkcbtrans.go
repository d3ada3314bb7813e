// Package parkcbtrans exercises parkpath on the kernel's timer and
// callback-waiter entry points: the park hides one call below a
// (*sim.Env).NewTimer callback or a (*sim.Signal).Notify waiter, on a
// stored process handle.
package parkcbtrans

import "fixture/internal/sim"

// waiter stores the handle it blocks on.
type waiter struct {
	proc *sim.Proc
}

// settle parks on the stored handle.
func (w *waiter) settle() {
	w.proc.Wait(1)
}

// BadTimer blocks below a timer callback.
func BadTimer(env *sim.Env, w *waiter) *sim.Timer {
	return env.NewTimer(func() {
		w.settle() // want(parkpath)
	})
}

// BadNotify blocks below a callback waiter.
func BadNotify(s *sim.Signal, w *waiter) {
	s.Notify(func() {
		w.settle() // want(parkpath)
	})
}

// GoodSpawn hands the blocking chain to a fresh process.
func GoodSpawn(s *sim.Signal, env *sim.Env, w *waiter) {
	s.Notify(func() {
		env.Go("settle", func(q *sim.Proc) {
			w.settle()
		})
	})
}
