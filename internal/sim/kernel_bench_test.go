package sim

import (
	"runtime"
	"testing"
	"time"
)

// The BenchmarkKernel* set measures the scheduler primitives that
// bound experiment wall-clock (DESIGN.md "Kernel performance"): run
// with
//
//	go test ./internal/sim -bench=BenchmarkKernel -benchmem
//
// The fast paths (timed callbacks, typed process resumes, timeline
// occupancy) must stay allocation-free per event;
// TestKernelFastPathAllocs pins that down numerically.

// BenchmarkKernelScheduleFire measures the inline-callback fast path:
// a self-rescheduling timed callback, the shape of every link
// completion and timer pop after the overhaul.
func BenchmarkKernelScheduleFire(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	remaining := b.N
	var fire func()
	fire = func() {
		remaining--
		if remaining > 0 {
			env.Schedule(time.Microsecond, fire)
		}
	}
	env.Schedule(time.Microsecond, fire)
	env.Run()
}

// BenchmarkKernelParkResume measures a full process park/resume cycle
// (Proc.Wait): one typed event plus two goroutine handoffs. This is
// the remaining process path, kept for state-dependent waits.
func BenchmarkKernelParkResume(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
	})
	env.Run()
}

// BenchmarkKernelTimelineOccupy measures timed occupancy under
// contention: four processes sharing a capacity-1 timeline, each op
// one park.
func BenchmarkKernelTimelineOccupy(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	tl := NewTimeline(env, 1)
	for w := 0; w < 4; w++ {
		n := b.N / 4
		if w == 0 {
			n += b.N % 4
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				tl.Occupy(p, time.Microsecond)
			}
		})
	}
	env.Run()
}

// BenchmarkKernelResourceContention measures the same contention
// pattern on the process-path primitive the timeline replaced:
// Acquire/Wait/Release on a capacity-1 Resource.
func BenchmarkKernelResourceContention(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	res := NewResource(env, 1)
	for w := 0; w < 4; w++ {
		n := b.N / 4
		if w == 0 {
			n += b.N % 4
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				res.Acquire(p)
				p.Wait(time.Microsecond)
				res.Release()
			}
		})
	}
	env.Run()
}

// BenchmarkKernelHeapChurn measures heap push/pop with a deep queue:
// 512 outstanding callbacks at staggered delays keep the 4-ary heap
// exercising multi-level sift-downs.
func BenchmarkKernelHeapChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	remaining := b.N
	var fire func()
	delay := time.Duration(0)
	fire = func() {
		remaining--
		if remaining > 0 {
			// Vary the delay deterministically so pushed events land
			// throughout the queue, not always at its tail.
			delay = (delay*131 + 7) % 509
			env.Schedule(delay*time.Microsecond, fire)
		}
	}
	outstanding := 512
	if b.N < outstanding {
		outstanding = b.N
	}
	for i := 0; i < outstanding; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fire)
	}
	env.Run()
}

// BenchmarkKernelSameInstantChurn measures the calendar queue at its
// bucket boundaries: 64 workers on a capacity-64 timeline all complete
// each round at one shared instant, so every round coalesces into a
// single batched grant, fully drains the current bucket (retiring it
// to the free list), and opens the next — the heaviest tie-churn shape
// the device models generate, at maximum pooling-path pressure.
func BenchmarkKernelSameInstantChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	const workers = 64
	tl := NewTimeline(env, workers)
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w == 0 {
			n += b.N % workers
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				tl.Occupy(p, time.Microsecond)
			}
		})
	}
	env.Run()
}

// BenchmarkKernelSpawn measures the process lifecycle: one spawner
// starts a short child per op (Go, first switch, one Wait, exit), the
// shape of every RPC sub-request and replica read. Children run on
// recycled worker coroutines, so the per-op allocations are the Proc
// and the child's closure.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	finished := 0
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Go("child", func(c *Proc) {
				c.Wait(time.Microsecond)
				finished++
			})
			p.Wait(time.Microsecond)
		}
	})
	env.Run()
	if finished != b.N {
		b.Fatalf("finished %d children, want %d", finished, b.N)
	}
}

// BenchmarkKernelTimerChurn measures the stoppable-timer heap under
// the load hedges and link completions put on it: 512 timers, each op
// re-arming one pending timer and stopping another, driven by a
// self-re-arming timer so nothing but the timer heap is exercised.
// Most armed deadlines die before they fire.
func BenchmarkKernelTimerChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	const n = 512
	timers := make([]*Timer, n)
	fired := 0
	for i := range timers {
		timers[i] = env.NewTimer(func() { fired++ })
		timers[i].Reset(time.Duration(i) * time.Microsecond)
	}
	remaining := b.N
	k := 0
	delay := time.Duration(0)
	var driver *Timer
	driver = env.NewTimer(func() {
		remaining--
		if remaining <= 0 {
			for _, t := range timers {
				t.Stop()
			}
			return
		}
		delay = (delay*131 + 7) % 509
		timers[k].Reset(delay*time.Microsecond + time.Microsecond)
		k = (k*7 + 3) % n
		timers[k].Stop()
		driver.Reset(time.Microsecond / 4)
	})
	b.ResetTimer()
	driver.Reset(0)
	env.Run()
}

// runAllocs builds a workload on a fresh Env, runs it to completion,
// and returns the heap allocations the run made and the events it
// dispatched.
func runAllocs(build func(env *Env)) (allocs, events uint64) {
	env := NewEnv()
	build(env)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env.Run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, env.Events()
}

// allocsPerEvent returns heap allocations per dispatched event.
func allocsPerEvent(build func(env *Env)) float64 {
	allocs, events := runAllocs(build)
	return float64(allocs) / float64(events)
}

// TestKernelFastPathAllocs asserts the -benchmem property the
// benchmarks report: steady-state fast-path traffic does not allocate.
// Bounds are loose (0.05 allocs/event) to absorb one-time costs —
// heap growth, goroutine stacks — without letting a per-event closure
// (1+ allocs/event) sneak back in.
func TestKernelFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const bound = 0.05
	cases := []struct {
		name  string
		build func(env *Env)
	}{
		{"timed-callback-chain", func(env *Env) {
			remaining := 200000
			var fire func()
			fire = func() {
				remaining--
				if remaining > 0 {
					env.Schedule(time.Microsecond, fire)
				}
			}
			env.Schedule(time.Microsecond, fire)
		}},
		{"proc-wait-loop", func(env *Env) {
			env.Go("worker", func(p *Proc) {
				for i := 0; i < 100000; i++ {
					p.Wait(time.Microsecond)
				}
			})
		}},
		{"timeline-occupy", func(env *Env) {
			tl := NewTimeline(env, 2)
			for w := 0; w < 3; w++ {
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 50000; i++ {
						tl.Occupy(p, time.Microsecond)
					}
				})
			}
		}},
		// The two pooled structures under maximum pressure: every round
		// batches 64 wakeups into one grant (grant pool) and drains one
		// bucket per instant (bucket free list). Steady state must
		// recycle both — a leak here shows up as ~1/64 allocs/event.
		{"same-instant-grant-burst", func(env *Env) {
			tl := NewTimeline(env, 64)
			for w := 0; w < 64; w++ {
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 3000; i++ {
						tl.Occupy(p, time.Microsecond)
					}
				})
			}
		}},
		// One waiter per signal is held inline: awaiting allocates
		// nothing. The signals are built before the measured run.
		{"signal-await", func(env *Env) {
			sigs := make([]*Signal, 50000)
			for i := range sigs {
				sigs[i] = NewSignal(env)
			}
			env.Go("waiter", func(p *Proc) {
				for _, s := range sigs {
					p.Await(s)
				}
			})
			env.Go("firer", func(p *Proc) {
				for _, s := range sigs {
					p.Wait(time.Microsecond)
					s.Fire()
				}
			})
		}},
		// Re-arming and stopping a deadline that usually dies touches
		// only the timer heap, in place.
		{"timer-reset-stop", func(env *Env) {
			fired := 0
			tm := env.NewTimer(func() { fired++ })
			env.Go("worker", func(p *Proc) {
				for i := 0; i < 100000; i++ {
					tm.Reset(2 * time.Microsecond)
					p.Wait(time.Microsecond)
					if i%4 == 0 {
						tm.Stop()
					}
				}
			})
		}},
		// Overlapping fair-share transfers re-arm the link's one
		// completion timer on every arrival and departure.
		{"shared-link-overlap", func(env *Env) {
			l := NewSharedLink(env, 1e9)
			for w := 0; w < 3; w++ {
				env.Go("xfer", func(p *Proc) {
					for i := 0; i < 30000; i++ {
						l.Transfer(p, 1000+300*w)
					}
				})
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allocsPerEvent(tc.build)
			if got > bound {
				t.Errorf("%s: %.4f allocs/event, want <= %.2f", tc.name, got, bound)
			}
		})
	}

	// A process lifecycle costs the Proc and the caller's closure, and
	// nothing else: the coroutine comes from the worker pool and the
	// finished process leaves no bookkeeping behind. The same slack as
	// above absorbs the pools' one-time growth.
	t.Run("spawn-finish-churn", func(t *testing.T) {
		const spawns = 100000
		allocs, _ := runAllocs(func(env *Env) {
			env.Go("spawner", func(p *Proc) {
				for i := 0; i < spawns; i++ {
					env.Go("child", func(c *Proc) {
						c.Wait(time.Duration(i%3) * time.Microsecond)
					})
					p.Wait(time.Microsecond)
				}
			})
		})
		if got := float64(allocs) / spawns; got > 2+bound {
			t.Errorf("spawn-finish-churn: %.4f allocs/spawn, want <= 2", got)
		}
	})
}
