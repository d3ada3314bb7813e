package main

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// kvRead is the kv-read workload: after a preload, closed-loop clients
// issue synchronous batched RPCs of uniformly random fixed-size Gets
// to the 3-replica group, timing-only (Figures 10-11 style).
type kvRead struct {
	w    Workload
	seed int64
	env  *sim.Env
	in   *instr
	k    *kvStack
	keys []string
	e    e2e

	before, after kvCounters
}

func newKVRead(w Workload, seed int64, in *instr) *kvRead {
	return &kvRead{w: w, seed: seed, env: sim.NewEnv(), in: in}
}

func (b *kvRead) setup() error {
	s := b.w.Sizes
	k, err := newKVStack(b.env, b.in, b.w, b.seed, false)
	if err != nil {
		return err
	}
	b.k = k
	b.keys = make([]string, s.Keys)
	for i := range b.keys {
		b.keys[i] = fmt.Sprintf("k%06d", i)
	}
	// The preload is the workload's write side: one open-loop loader
	// Puts the whole dataset in a seeded order at seeded Poisson
	// arrivals, then every slice flushes. Put latency counts from each
	// Put's due time, so a Put stalled behind a memtable flush delays
	// the ones due after it. These latencies and the load's bandwidth
	// are what kv-read reports as write metrics.
	rng := rand.New(rand.NewSource(b.seed))
	order := rng.Perm(len(b.keys))
	dev0 := k.snapshot()
	var failed error
	boot := b.env.Go("perfbench/preload", func(p *sim.Proc) {
		start := b.env.Now()
		for i, due := range arrivals(rng, start, 1<<62, s.LoadRatePerS, len(order)) {
			waitUntil(p, due)
			if err := k.put(p, b.keys[order[i]], nil, s.ValueBytes, 0); err != nil {
				failed = err
				return
			}
			b.e.writes = append(b.e.writes, b.env.Now()-due)
			b.e.writeBytes += int64(s.ValueBytes)
		}
		failed = k.flushAll(p)
		b.e.writeWindow = b.env.Now() - start
	})
	b.env.RunUntilDone(boot)
	if failed != nil {
		return fmt.Errorf("kv-read preload: %w", failed)
	}
	dev1 := k.snapshot()
	b.e.flashWritten = dev1.devWritten - dev0.devWritten
	b.e.userWritten = (dev1.userAck - dev0.userAck) * int64(s.Replicas)
	return nil
}

func (b *kvRead) measure() error {
	s := b.w.Sizes
	env, k := b.env, b.k
	b.e.readLimit = time.Duration(b.w.ReadLimitMs * float64(time.Millisecond))
	t0 := env.Now()
	end := t0 + time.Duration(s.MeasureMs)*time.Millisecond
	b.in.attach(env)
	b.in.startPoller(env, k.devs, k.layers, time.Millisecond, end)
	b.before = k.snapshot()
	rng := rand.New(rand.NewSource(b.seed + 1))
	var op int64
	joiner := env.Go("perfbench/clients", func(p *sim.Proc) {
		var clients []*sim.Proc
		for c := 0; c < s.Clients; c++ {
			crng := rand.New(rand.NewSource(rng.Int63()))
			client := k.net.NewClient()
			clients = append(clients, env.Go("perfbench/client", func(cp *sim.Proc) {
				subs := make([]rpcnet.SubRequest, s.Batch)
				for env.Now() < end {
					op++
					id, start := op, env.Now()
					call := b.in.begin(env, 0, "rpcnet/do", id)
					bad := 0 // Gets of this RPC that failed or came back wrong
					for j := range subs {
						key := b.keys[crng.Intn(len(b.keys))]
						subs[j] = func(sp *sim.Proc) int {
							sub := b.in.begin(env, call, "rpcnet/sub", id)
							get := b.in.begin(env, sub, "cluster/get", id)
							_, n, err := k.group.Get(sp, key)
							b.in.end(env, get)
							b.in.end(env, sub)
							switch {
							case err != nil:
								b.e.failed++
							case n != s.ValueBytes:
								b.e.wrong++
							default:
								b.e.readBytes += int64(n)
								return n
							}
							bad++
							return 0
						}
					}
					if _, err := client.Do(cp, 128, subs); err != nil {
						b.e.failed += int64(s.Batch - bad)
						bad = s.Batch
					}
					b.in.end(env, call)
					b.e.attempted += int64(s.Batch)
					b.e.readDone(env.Now()-start, bad == 0)
				}
			}))
		}
		for _, c := range clients {
			p.Join(c)
		}
	})
	env.RunUntilDone(joiner)
	if !joiner.Done() {
		return fmt.Errorf("kv-read: clients did not finish")
	}
	b.e.window = env.Now() - t0
	b.after = k.snapshot()
	return nil
}

func (b *kvRead) result() *passResult {
	e := b.e // a copy: the result must not keep the simulation alive
	r := &passResult{e: &e, layer: map[string]float64{}, ops: e.attempted}
	b.k.layerMetrics(r.layer, b.before, b.after, r.ops, e.window, b.in.pollEvents())
	b.in.spanMetrics(r.layer, r.ops)
	return r
}

func (b *kvRead) close() { b.env.Close() }
