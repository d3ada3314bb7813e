package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// payload is a buffer big enough that retaining it would matter.
type payload struct{ b [1 << 16]byte }

// goHolding spawns a process whose body captures a fresh payload, and
// arranges for collected to be set once the payload is garbage
// collected. The payload is reachable only through the body.
func goHolding(e *Env, collected *atomic.Bool) {
	buf := new(payload)
	runtime.SetFinalizer(buf, func(*payload) { collected.Store(true) })
	e.Go("holder", func(p *Proc) {
		p.Wait(time.Microsecond)
		buf.b[0]++
	})
}

// TestFinishedProcessesAreNotRetained spawns 100k short processes and
// checks, from inside the still-running simulation, that the Env's
// process bookkeeping stays bounded and that a buffer captured by a
// finished process has been collected.
func TestFinishedProcessesAreNotRetained(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var collected atomic.Bool
	goHolding(e, &collected)
	checked := false
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 100000; i++ {
			e.Go("short", func(c *Proc) { c.Wait(time.Microsecond) })
			p.Wait(time.Microsecond)
		}
		if len(e.procs) > 16 || cap(e.procs) > 64 || len(e.idle) > 4 {
			t.Errorf("bookkeeping after 100k processes: %d procs (cap %d), %d idle workers",
				len(e.procs), cap(e.procs), len(e.idle))
		}
		for i := 0; i < 100 && !collected.Load(); i++ {
			runtime.GC()
			runtime.Gosched()
		}
		if !collected.Load() {
			t.Error("buffer captured by a finished process is still reachable")
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("spawner did not finish")
	}
}

// TestCloseDrainsIdleWorkersAndParkedProcesses closes an Env holding
// both idle pooled workers and parked processes: every parked defer
// must run and every coroutine goroutine must end.
func TestCloseDrainsIdleWorkersAndParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	cleaned := 0
	for i := 0; i < 20; i++ {
		e.Go("short", func(p *Proc) { p.Wait(time.Duration(i) * time.Microsecond) })
	}
	for i := 0; i < 5; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Wait(time.Hour)
		})
	}
	e.RunUntil(time.Second)
	if len(e.idle) != 20 {
		t.Fatalf("idle workers before Close = %d, want 20", len(e.idle))
	}
	e.Close()
	if cleaned != 5 {
		t.Fatalf("cleaned = %d, want 5", cleaned)
	}
	waitGoroutines(t, before)
}

// TestDrainedEnvReleasesWorkers runs an Env to completion without
// closing it: with nothing left to dispatch, its idle workers end, and
// a later Go starts a fresh pool.
func TestDrainedEnvReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	for i := 0; i < 10; i++ {
		e.Go("short", func(p *Proc) { p.Wait(time.Microsecond) })
	}
	e.Run()
	if len(e.idle) != 0 {
		t.Fatalf("idle workers after a drained Run = %d, want 0", len(e.idle))
	}
	waitGoroutines(t, before)
	ran := false
	e.Go("again", func(p *Proc) { p.Wait(time.Microsecond); ran = true })
	e.Run()
	if !ran {
		t.Fatal("process spawned after the pool was released did not run")
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count returns to
// want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got != want; i++ {
		runtime.Gosched()
		got = runtime.NumGoroutine()
	}
	if got != want {
		t.Fatalf("goroutines = %d, want %d", got, want)
	}
}

// TestPanicOnRecycledWorkerNamesItsProcess runs a panicking process on
// the worker a finished process left idle: the panic must carry the
// panicking process's name.
func TestPanicOnRecycledWorkerNamesItsProcess(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var firstWorker *worker
	e.Go("spawner", func(p *Proc) {
		e.Go("first", func(f *Proc) { firstWorker = f.w })
		p.Wait(time.Microsecond)
		e.Go("boom", func(b *Proc) {
			if b.w != firstWorker {
				t.Error("process did not run on the recycled worker")
			}
			panic("kaboom")
		})
		p.Wait(time.Microsecond)
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `process "boom" panicked: kaboom`) {
			t.Fatalf("panic = %q, want it to name process boom", msg)
		}
	}()
	e.Run()
}

// TestJoinFinishedProcessAfterWorkerReuse joins and awaits a finished
// process whose worker has since been handed to another process.
func TestJoinFinishedProcessAfterWorkerReuse(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var firstWorker *worker
	first := e.Go("first", func(p *Proc) { firstWorker = p.w })
	joined := false
	e.Go("second", func(p *Proc) {
		p.Wait(time.Millisecond)
		if p.w != firstWorker {
			t.Error("second process did not reuse the first one's worker")
		}
		if !first.Done() {
			t.Error("finished process reports not done")
		}
		p.Join(first)
		if s := first.DoneSignal(); !s.Fired() {
			t.Error("done signal of finished process not fired")
		} else {
			p.Await(s)
		}
		joined = true
	})
	e.Run()
	if !joined {
		t.Fatal("join on a finished process did not return")
	}
}
