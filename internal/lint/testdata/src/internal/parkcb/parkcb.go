// Package parkcb exercises inlinepark on the kernel's timer and
// callback-waiter entry points: a (*sim.Env).NewTimer callback and a
// (*sim.Signal).Notify waiter both run on the scheduler goroutine, so
// blocking in either deadlocks the simulation.
package parkcb

import "fixture/internal/sim"

// BadTimer parks inside a timer callback.
func BadTimer(env *sim.Env, p *sim.Proc) *sim.Timer {
	return env.NewTimer(func() {
		p.Wait(1) // want(inlinepark)
	})
}

// BadNotify parks inside a callback waiter.
func BadNotify(s, other *sim.Signal, p *sim.Proc) {
	s.Notify(func() {
		p.Await(other) // want(inlinepark)
	})
}

// Good shows the legal shapes: re-arming, firing, and spawning a fresh
// process to block in.
func Good(env *sim.Env, s, other *sim.Signal) {
	var t *sim.Timer
	t = env.NewTimer(func() {
		t.Reset(5)
	})
	s.Notify(func() {
		env.Go("spawned", func(q *sim.Proc) {
			q.Await(other) // fresh process context: blocking is legal
		})
	})
}
