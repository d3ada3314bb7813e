package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// kvMixed is the kv-mixed workload: open-loop Gets at a fixed rate
// beside a paced Put stream on a hot key set, over the coordinated
// 3-replica stack storing real bytes. Every value is derived from
// (key, version, seed) and every Get is checked byte for byte.
type kvMixed struct {
	w     Workload
	seed  int64
	env   *sim.Env
	in    *instr
	k     *kvStack
	cold  []string
	hot   []string
	state map[string]*keyState
	check []byte // scratch for expected values
	e     e2e

	t0, tw, te, horizon time.Duration
	before, after       kvCounters
	reads, writes       int64 // window ops attempted
	done                int64 // window ops finished by the horizon
	failedGets          int64
	failedPuts          int64
	lateMax             time.Duration
}

// keyState is the benchmark's model of one key: the last acknowledged
// version and the versions issued since (in flight, or failed and so
// possibly visible) that a Get may also return.
type keyState struct {
	acked, next int
	maybe       []int
}

func newKVMixed(w Workload, seed int64, in *instr) *kvMixed {
	return &kvMixed{w: w, seed: seed, env: sim.NewEnv(), in: in, state: map[string]*keyState{}}
}

// setup builds the stack, preloads every key at version 0 and runs the
// traffic through its warm-up, so that compaction has cycled and write
// amplification has levelled off before the measured window.
func (b *kvMixed) setup() error {
	s := b.w.Sizes
	k, err := newKVStack(b.env, b.in, b.w, b.seed, true)
	if err != nil {
		return err
	}
	b.k = k
	for i := 0; i < s.Keys; i++ {
		b.cold = append(b.cold, fmt.Sprintf("c%05d", i))
	}
	for i := 0; i < s.HotKeys; i++ {
		b.hot = append(b.hot, fmt.Sprintf("h%03d", i))
	}
	// The preload is a bulk load, not SLO-bound traffic: it bypasses
	// admission so the measured counters start clean.
	k.adm.SetBestEffort(true)
	var failed error
	boot := b.env.Go("perfbench/preload", func(p *sim.Proc) {
		for _, key := range append(append([]string(nil), b.cold...), b.hot...) {
			b.state[key] = &keyState{}
			v := valueOf(nil, key, 0, b.seed, s.ValueBytes)
			if err := k.put(p, key, v, len(v), 0); err != nil {
				failed = err
				return
			}
		}
		failed = k.flushAll(p)
	})
	b.env.RunUntilDone(boot)
	k.adm.SetBestEffort(false)
	if failed != nil {
		return fmt.Errorf("kv-mixed preload: %w", failed)
	}
	b.t0 = b.env.Now()
	b.tw = b.t0 + time.Duration(s.WarmupMs)*time.Millisecond
	b.te = b.tw + time.Duration(s.MeasureMs)*time.Millisecond
	b.horizon = b.te + time.Duration(s.GraceMs)*time.Millisecond
	b.e.readLimit = time.Duration(b.w.ReadLimitMs * float64(time.Millisecond))
	b.startReaders()
	b.startWriters()
	b.env.RunUntil(b.tw)
	return nil
}

// schedule draws one generator's Poisson due times, n generators
// sharing rate, and counts those inside the measured window.
func (b *kvMixed) schedule(rng *rand.Rand, n int, rate float64, inWindow *int64) []time.Duration {
	due := arrivals(rng, b.t0, b.te, rate/float64(n), -1)
	for _, d := range due {
		if d >= b.tw {
			*inWindow++
		}
	}
	return due
}

func (b *kvMixed) startReaders() {
	s := b.w.Sizes
	env, k := b.env, b.k
	rng := rand.New(rand.NewSource(b.seed))
	var op int64
	for range s.Readers {
		rrng := rand.New(rand.NewSource(rng.Int63()))
		client := k.net.NewClient()
		schedule := b.schedule(rrng, s.Readers, s.ReadRatePerS, &b.reads)
		env.Go("perfbench/reader", func(p *sim.Proc) {
			for _, due := range schedule {
				waitUntil(p, due)
				inWindow := due >= b.tw
				if late := env.Now() - due; inWindow && late > b.lateMax {
					b.lateMax = late
				}
				var key string
				if i := rrng.Intn(len(b.cold) + len(b.hot)); i < len(b.cold) {
					key = b.cold[i]
				} else {
					key = b.hot[i-len(b.cold)]
				}
				st := b.state[key]
				allowed := append([]int{st.acked}, st.maybe...)
				op++
				id := op
				var value []byte
				var n int
				var getErr error
				call := b.in.begin(env, 0, "rpcnet/do", id)
				_, err := client.DoBudget(p, 128, []rpcnet.SubRequest{func(sp *sim.Proc) int {
					sub := b.in.begin(env, call, "rpcnet/sub", id)
					get := b.in.begin(env, sub, "cluster/get", id)
					value, n, getErr = k.group.Get(sp, key)
					b.in.end(env, get)
					b.in.end(env, sub)
					if getErr != nil {
						return 0
					}
					return n
				}}, 20*time.Millisecond)
				b.in.end(env, call)
				if !inWindow {
					continue
				}
				allowed = append(append(allowed, st.acked), st.maybe...)
				got := value
				// The kernel keeps every finished process, and with it the
				// sub-request closure: drop the value it captured.
				value = nil
				b.finish()
				switch {
				case err != nil || getErr != nil:
					b.e.failed++
					b.failedGets++
					b.e.readDone(0, false)
				case !b.matches(key, got, n, allowed):
					b.e.wrong++
					b.e.readDone(0, false)
				default:
					b.e.readBytes += int64(n)
					b.e.readDone(env.Now()-due, true)
				}
			}
		})
	}
}

// matches reports whether a Get's output is exactly one of the
// versions the model allows.
func (b *kvMixed) matches(key string, value []byte, n int, allowed []int) bool {
	if len(value) != n {
		return false
	}
	for _, v := range allowed {
		b.check = valueOf(b.check, key, v, b.seed, b.w.Sizes.ValueBytes)
		if bytes.Equal(value, b.check) {
			return true
		}
	}
	return false
}

func (b *kvMixed) startWriters() {
	s := b.w.Sizes
	env, k := b.env, b.k
	rng := rand.New(rand.NewSource(b.seed + 1))
	for w := 0; w < s.Writers; w++ {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		// Each writer owns a disjoint share of the hot keys, so no key
		// ever has two Puts in flight.
		var own []string
		for i := w; i < len(b.hot); i += s.Writers {
			own = append(own, b.hot[i])
		}
		schedule := b.schedule(wrng, s.Writers, s.PutRatePerS, &b.writes)
		env.Go("perfbench/writer", func(p *sim.Proc) {
			for _, due := range schedule {
				waitUntil(p, due)
				inWindow := due >= b.tw
				if late := env.Now() - due; inWindow && late > b.lateMax {
					b.lateMax = late
				}
				key := own[wrng.Intn(len(own))]
				st := b.state[key]
				st.next++
				ver := st.next
				st.maybe = append(st.maybe, ver)
				v := valueOf(nil, key, ver, b.seed, s.ValueBytes)
				err := k.put(p, key, v, len(v), 0)
				if err == nil {
					st.acked, st.maybe = ver, st.maybe[:0]
				}
				if !inWindow {
					continue
				}
				b.finish()
				if err != nil {
					b.e.failed++
					b.failedPuts++
					continue
				}
				b.e.writes = append(b.e.writes, env.Now()-due)
				b.e.writeBytes += int64(len(v))
			}
		})
	}
}

// finish counts one window op that completed before the horizon.
func (b *kvMixed) finish() {
	if b.env.Now() <= b.horizon {
		b.done++
	}
}

func (b *kvMixed) measure() error {
	k := b.k
	b.in.attach(b.env)
	b.in.startPoller(b.env, k.devs, k.layers, time.Millisecond, b.te)
	b.before = k.snapshot()
	b.env.RunUntil(b.horizon)
	b.after = k.snapshot()
	return nil
}

func (b *kvMixed) result() *passResult {
	s := b.w.Sizes
	// Ops still outstanding at the horizon failed; unfinished reads
	// also miss the latency limit.
	outstanding := b.reads + b.writes - b.done
	b.e.failed += outstanding
	b.e.readsTried = b.reads
	b.e.attempted = b.reads + b.writes
	b.e.window = b.te - b.tw
	b.e.writeWindow = b.e.window
	b.e.flashWritten = b.after.devWritten - b.before.devWritten
	b.e.userWritten = (b.after.userAck - b.before.userAck) * int64(s.Replicas)
	e := b.e // a copy: the result must not keep the simulation alive
	r := &passResult{e: &e, layer: map[string]float64{}, ops: b.done,
		info: map[string]float64{"generator_late_max_ms": msOf(b.lateMax), "outstanding": float64(outstanding),
			"failed_gets": float64(b.failedGets), "failed_puts": float64(b.failedPuts)}}
	b.k.layerMetrics(r.layer, b.before, b.after, r.ops, e.window, b.in.pollEvents())
	b.in.spanMetrics(r.layer, r.ops)
	return r
}

func (b *kvMixed) close() { b.env.Close() }
