package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimerFiresAtResetInstant checks the basic contract: Reset arms,
// a later Reset replaces the pending firing, and Stop cancels it.
func TestTimerFiresAtResetInstant(t *testing.T) {
	e := NewEnv()
	var at []time.Duration
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.Reset(5 * time.Microsecond)
	tm.Reset(3 * time.Microsecond) // replaces the 5us firing
	e.Run()
	if !slices.Equal(at, []time.Duration{3 * time.Microsecond}) {
		t.Fatalf("fired at %v, want [3us]", at)
	}
	tm.Stop() // stopping a fired timer is a no-op
	tm.Reset(time.Microsecond)
	tm.Stop()
	e.Run()
	if len(at) != 1 {
		t.Fatalf("stopped timer fired: %v", at)
	}
}

// TestTimerTiesFollowResetOrder pins the (at, seq) merge: a timer and
// plain events at one instant dispatch in the order their Reset and
// Schedule calls were made, and re-arming moves a timer behind events
// scheduled before the re-arm.
func TestTimerTiesFollowResetOrder(t *testing.T) {
	e := NewEnv()
	var log []string
	mark := func(s string) func() { return func() { log = append(log, s) } }
	a := e.NewTimer(mark("timer-a"))
	b := e.NewTimer(mark("timer-b"))
	a.Reset(time.Microsecond)
	e.Schedule(time.Microsecond, mark("sched-1"))
	b.Reset(time.Microsecond)
	e.Schedule(time.Microsecond, mark("sched-2"))
	a.Reset(time.Microsecond) // re-arm: now behind sched-2
	e.Run()
	want := []string{"sched-1", "timer-b", "sched-2", "timer-a"}
	if !slices.Equal(log, want) {
		t.Fatalf("dispatch order %v, want %v", log, want)
	}
}

// TestStoppedTimerDoesNotExtendRun checks that a stopped timer is gone
// from the pending set: Run ends at the last live event, and it is not
// counted as a dispatched event.
func TestStoppedTimerDoesNotExtendRun(t *testing.T) {
	e := NewEnv()
	tm := e.NewTimer(func() { t.Error("stopped timer fired") })
	tm.Reset(time.Second)
	e.Go("worker", func(p *Proc) {
		p.Wait(time.Millisecond)
		tm.Stop()
	})
	e.Run()
	if e.Now() != time.Millisecond {
		t.Fatalf("Run ended at %v, want 1ms", e.Now())
	}
	if got := e.Events(); got != 2 {
		t.Fatalf("Events() = %d, want 2 (spawn, resume)", got)
	}
}

// TestStoppedTimerDoesNotKeepRunUntilDoneGoing parks the target process
// forever: with its only timer stopped, nothing is pending, so
// RunUntilDone returns instead of dispatching the dead deadline.
func TestStoppedTimerDoesNotKeepRunUntilDoneGoing(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	never := NewSignal(e)
	tm := e.NewTimer(func() { t.Error("stopped timer fired") })
	target := e.Go("target", func(p *Proc) {
		tm.Reset(time.Hour)
		p.Wait(time.Microsecond)
		tm.Stop()
		p.Await(never)
	})
	e.RunUntilDone(target)
	if target.Done() || e.Now() != time.Microsecond {
		t.Fatalf("RunUntilDone returned at %v (done=%v), want 1us with the target parked",
			e.Now(), target.Done())
	}
}

// TestRunUntilHonoursEarliestOfQueueAndTimers checks the run bound
// against both pending sets: whichever of the queue head and the timer
// heap is earlier decides what dispatches before the limit.
func TestRunUntilHonoursEarliestOfQueueAndTimers(t *testing.T) {
	for _, tc := range []struct {
		name          string
		timer, event  time.Duration
		wantT, wantEv bool
	}{
		{"timer-first", 5 * time.Microsecond, 10 * time.Microsecond, true, false},
		{"event-first", 10 * time.Microsecond, 5 * time.Microsecond, false, true},
		{"both-later", 8 * time.Microsecond, 9 * time.Microsecond, false, false},
		{"both-earlier", 2 * time.Microsecond, 3 * time.Microsecond, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			var firedT, firedEv bool
			e.NewTimer(func() { firedT = true }).Reset(tc.timer)
			e.Schedule(tc.event, func() { firedEv = true })
			e.RunUntil(7 * time.Microsecond)
			if firedT != tc.wantT || firedEv != tc.wantEv {
				t.Fatalf("timer fired %v, event fired %v; want %v, %v", firedT, firedEv, tc.wantT, tc.wantEv)
			}
			if e.Now() != 7*time.Microsecond {
				t.Fatalf("clock %v after RunUntil(7us)", e.Now())
			}
			e.Run()
			if !firedT || !firedEv {
				t.Fatal("Run after RunUntil left work pending")
			}
		})
	}
}

// TestCloseDropsPendingTimers closes an Env with an armed timer whose
// callback holds a large buffer. The caller keeps the Env but not the
// timer: after Close the buffer must be collectable.
func TestCloseDropsPendingTimers(t *testing.T) {
	e := NewEnv()
	var collected atomic.Bool
	armHolding(e, &collected)
	e.Close()
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !collected.Load() {
		t.Error("buffer captured by a pending timer's callback is still reachable after Close")
	}
	if len(e.timers) != 0 {
		t.Errorf("%d timers pending after Close", len(e.timers))
	}
	runtime.KeepAlive(e)
}

// armHolding arms a timer whose callback captures a fresh payload that
// is reachable only through the timer.
func armHolding(e *Env, collected *atomic.Bool) {
	buf := new(payload)
	runtime.SetFinalizer(buf, func(*payload) { collected.Store(true) })
	e.NewTimer(func() { buf.b[0]++ }).Reset(time.Hour)
}

// TestAwaitWithin covers the three outcomes of a timed wait and checks
// that an early return leaves no timeout behind.
func TestAwaitWithin(t *testing.T) {
	e := NewEnv()
	early, late, fired := NewSignal(e), NewSignal(e), NewSignal(e)
	fired.Fire()
	var got []string
	e.Go("waiter", func(p *Proc) {
		got = append(got, fmt.Sprint(p.AwaitWithin(fired, time.Millisecond), e.Now()))
		got = append(got, fmt.Sprint(p.AwaitWithin(early, time.Millisecond), e.Now()))
		if len(e.timers) != 0 {
			t.Error("a timed wait that ended early left its timeout pending")
		}
		got = append(got, fmt.Sprint(p.AwaitWithin(late, time.Millisecond), e.Now()))
		got = append(got, fmt.Sprint(p.AwaitWithin(late, 0), e.Now()))
	})
	e.Go("firer", func(p *Proc) {
		p.Wait(10 * time.Microsecond)
		early.Fire()
		p.Wait(5 * time.Millisecond)
		late.Fire()
	})
	e.Run()
	want := []string{"true 0s", "true 10µs", "false 1.01ms", "false 1.01ms"}
	if !slices.Equal(got, want) {
		t.Fatalf("AwaitWithin results %v, want %v", got, want)
	}
}

// TestNotifyRunsInWaiterSlot checks that a callback waiter is woken in
// the slot a parked process would get: in registration order among the
// signal's waiters, after events already scheduled at the instant.
func TestNotifyRunsInWaiterSlot(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var log []string
	e.Go("proc-waiter", func(p *Proc) {
		p.Await(s)
		log = append(log, "proc")
	})
	e.Schedule(0, func() { s.Notify(func() { log = append(log, "callback") }) })
	e.Schedule(time.Microsecond, func() {
		e.Schedule(0, func() { log = append(log, "earlier-event") })
		s.Fire()
		s.Notify(func() { log = append(log, "after-fire") })
	})
	e.Run()
	want := []string{"after-fire", "earlier-event", "proc", "callback"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestTimerIdiomsMatchReference is the order-equivalence property: a
// seeded random program mixing processes, waits, callbacks, timers,
// callback waiters and timed waits produces, step for step, the same
// dispatch log as the same program written with the idioms the new
// primitives replace — Schedule plus generation-checked closures for
// timers, and watcher processes for callback waiters and timed waits.
func TestTimerIdiomsMatchReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	total := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		got, want := runIdiomProgram(seed, false), runIdiomProgram(seed, true)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d\n got: %v\nwant: %v", seed, i,
				got[max(0, i-3):min(len(got), i+3)], want[max(0, i-3):min(len(want), i+3)])
		}
		total += len(want)
	}
	// Processes that strand on a plain Await end their program early;
	// the programs must still do real work on average.
	if total < 50*seeds {
		t.Fatalf("%d log entries over %d seeds; programs too small to mean anything", total, seeds)
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// idiomTimer is a timer in either form: a kernel Timer, or the
// reference Schedule-plus-generation idiom it replaces.
type idiomTimer struct {
	env *Env
	ref bool
	t   *Timer
	gen uint64
	fn  func()
}

func newIdiomTimer(env *Env, ref bool, fn func()) *idiomTimer {
	it := &idiomTimer{env: env, ref: ref, fn: fn}
	if !ref {
		it.t = env.NewTimer(fn)
	}
	return it
}

func (it *idiomTimer) reset(d time.Duration) {
	if !it.ref {
		it.t.Reset(d)
		return
	}
	it.gen++
	gen := it.gen
	it.env.Schedule(d, func() {
		if gen == it.gen {
			it.fn()
		}
	})
}

func (it *idiomTimer) stop() {
	if !it.ref {
		it.t.Stop()
		return
	}
	it.gen++
}

// runIdiomProgram interprets the random program for seed in the new
// form (ref false) or the reference form, returning its dispatch log.
// Both forms draw from the generator in the same order as long as
// they dispatch in the same order, so any divergence shows in the log.
func runIdiomProgram(seed int64, ref bool) []string {
	env := NewEnv()
	defer env.Close()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", env.Now())+fmt.Sprintf(format, args...))
	}
	dur := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Microsecond }

	sigs := make([]*Signal, 6)
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	fire := func(k int) {
		sigs[k].Fire()
		sigs[k] = NewSignal(env) // later waits on slot k need a fresh signal
	}
	budget := 400 // bounds self-re-arming timers
	timers := make([]*idiomTimer, 4)
	for k := range timers {
		timers[k] = newIdiomTimer(env, ref, func() {
			logf("timer %d", k)
			if rng.Intn(3) == 0 {
				fire(rng.Intn(len(sigs)))
			}
			if budget > 0 && rng.Intn(2) == 0 {
				budget--
				timers[k].reset(dur())
			}
		})
	}
	// watch runs fn once sig fires, from the dispatch slot a watcher
	// process spawned now would start in.
	watch := func(name string, sig *Signal, fn func()) {
		if ref {
			env.Go(name, func(wp *Proc) {
				wp.Await(sig)
				fn()
			})
			return
		}
		env.Schedule(0, func() { sig.Notify(fn) })
	}
	awaitWithin := func(p *Proc, sig *Signal, d time.Duration) bool {
		if !ref {
			return p.AwaitWithin(sig, d)
		}
		if sig.Fired() {
			return true
		}
		if d <= 0 {
			return false
		}
		step := NewSignal(env)
		env.Schedule(d, func() { step.Fire() })
		env.Go("await", func(wp *Proc) {
			wp.Await(sig)
			step.Fire()
		})
		p.Await(step)
		return sig.Fired()
	}

	var body func(p *Proc, id, steps int)
	body = func(p *Proc, id, steps int) {
		// The hedge-style wait keeps one timer per process, re-armed
		// per round and stopped when the round ends.
		var step *Signal
		hedge := newIdiomTimer(env, ref, func() { step.Fire() })
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(11); op {
			case 0:
				p.Wait(dur())
				logf("p%d waited", id)
			case 1:
				d, k := dur(), rng.Intn(len(sigs))
				child := id*100 + i
				env.Go("child", func(c *Proc) {
					c.Wait(d)
					logf("child %d fires %d", child, k)
					fire(k)
				})
			case 2:
				d, k := dur(), rng.Intn(len(sigs))
				env.Schedule(d, func() {
					logf("callback from p%d", id)
					if rng.Intn(2) == 0 {
						fire(k)
					}
				})
			case 3:
				timers[rng.Intn(len(timers))].reset(dur())
			case 4:
				timers[rng.Intn(len(timers))].stop()
			case 5:
				fire(rng.Intn(len(sigs)))
				logf("p%d fired", id)
			case 6:
				k := rng.Intn(len(sigs))
				ok := awaitWithin(p, sigs[k], dur())
				logf("p%d awaitWithin %d -> %v", id, k, ok)
			case 7:
				k, tag := rng.Intn(len(sigs)), id*100+i
				watch("watch", sigs[k], func() {
					logf("watcher %d saw %d", tag, k)
					if rng.Intn(2) == 0 {
						timers[rng.Intn(len(timers))].reset(dur())
					}
				})
			case 8:
				// Wait for any of two signals or a hedge deadline, the
				// shape of a hedged replica read.
				step = NewSignal(env)
				wake := step.Fire
				for _, k := range []int{rng.Intn(len(sigs)), rng.Intn(len(sigs))} {
					watch("watch-any", sigs[k], wake)
				}
				if d := dur(); d > 0 {
					hedge.reset(d)
				}
				p.Await(step)
				hedge.stop()
				logf("p%d woke from any", id)
			case 9:
				k := rng.Intn(len(sigs))
				if sigs[k].Fired() || rng.Intn(2) == 0 {
					// A plain Await on a signal nobody fires again would
					// strand the process; bound it instead.
					logf("p%d bounded await %d -> %v", id, k, awaitWithin(p, sigs[k], 3*time.Microsecond))
				} else {
					p.Await(sigs[k])
					logf("p%d awaited %d", id, k)
				}
			case 10:
				if steps > 2 {
					sub := id*10 + i
					w := env.Go("sub", func(c *Proc) { body(c, sub, steps/3) })
					if rng.Intn(2) == 0 {
						p.Join(w)
						logf("p%d joined p%d", id, sub)
					}
				}
			}
		}
		logf("p%d done", id)
	}
	for id := 0; id < 4; id++ {
		env.Go("proc", func(p *Proc) { body(p, id, 30) })
	}
	env.RunUntil(time.Millisecond)
	return log
}
