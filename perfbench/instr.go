package main

import (
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// instr is the traced pass's instrumentation. Every method is a no-op
// on a nil *instr, which is what an untraced pass carries, so the
// workloads call it unconditionally.
//
// The benchmark's own spans (around rpcnet, cluster and storage calls)
// go to spans; the device's phase spans and the kernel's spawn events go
// to dev, attached with Env.SetTracer. Both record only inside the
// measured window. The simulation never reads either collector, which
// is what lets the traced pass check that its virtual results match
// the untraced pass exactly.
type instr struct {
	spans *trace.Collector
	dev   *trace.Collector
	next  trace.SpanID
	on    bool
	poll  poller
}

func newInstr(workload string) *instr {
	in := &instr{spans: trace.NewCollector(), dev: trace.NewCollector()}
	in.spans.SetDev(workload)
	in.dev.SetLevel(trace.LevelFull)
	return in
}

// attach starts recording at the beginning of the measured window.
func (in *instr) attach(env *sim.Env) {
	if in == nil {
		return
	}
	env.SetTracer(in.dev)
	in.on = true
}

// begin opens a benchmark span; op is the client op's id (0 where the
// call chain does not carry one).
func (in *instr) begin(env *sim.Env, parent trace.SpanID, name string, op int64) trace.SpanID {
	if in == nil || !in.on {
		return 0
	}
	in.next++
	in.spans.Emit(env.Now(), trace.KindSpanBegin, in.next, parent, name, trace.PhaseOp, op)
	return in.next
}

func (in *instr) end(env *sim.Env, id trace.SpanID) {
	if in == nil || id == 0 {
		return
	}
	in.spans.Emit(env.Now(), trace.KindSpanEnd, id, 0, "", "", 0)
}

// poller samples every channel's queue depth and busy flag and every
// channel's pre-erased pool on a fixed virtual period. It runs only in
// the traced pass; its own kernel events are subtracted from
// sim.events_per_op.
type poller struct {
	events  uint64 // kernel events the poller itself caused
	samples int64  // channel samples taken
	qsum    int64
	qmax    int
	busy    int64
	freeMin int
}

func (in *instr) startPoller(env *sim.Env, devs []*core.Device, layers []*blocklayer.Layer, every, until time.Duration) {
	if in == nil {
		return
	}
	pl := &in.poll
	pl.freeMin = -1
	pl.events = 1 // the spawn
	env.Go("perfbench/poller", func(p *sim.Proc) {
		for env.Now() < until {
			for _, d := range devs {
				for c := 0; c < d.Channels(); c++ {
					ch := d.Channel(c)
					q := ch.QueueDepth()
					pl.samples++
					pl.qsum += int64(q)
					if q > pl.qmax {
						pl.qmax = q
					}
					if !ch.Idle() {
						pl.busy++
					}
				}
			}
			for _, l := range layers {
				for c := 0; c < l.Device().Channels(); c++ {
					if erased, _ := l.FreeBlocks(c); pl.freeMin < 0 || erased < pl.freeMin {
						pl.freeMin = erased
					}
				}
			}
			p.Wait(every)
			pl.events++
		}
	})
}

// pollEvents is the number of kernel events the poller caused.
func (in *instr) pollEvents() uint64 {
	if in == nil {
		return 0
	}
	return in.poll.events
}

// spanMetrics folds the traced pass's spans into per-layer metrics:
// p50/p99 of each benchmark span name, the RPC layer's self time, the
// device phase p99s, and kernel spawns per op.
func (in *instr) spanMetrics(layer map[string]float64, ops int64) {
	if in == nil {
		return
	}
	byName := map[string]trace.PhaseStat{}
	for _, st := range trace.Summarize(in.spans.Events()) {
		byName[st.Name] = st
	}
	for _, s := range []struct{ span, metric string }{
		{"rpcnet/do", "rpcnet.call_ms"},
		{"cluster/get", "cluster.get_ms"},
		{"cluster/put", "cluster.put_ms"},
		{"blocklayer/read", "blocklayer.read_ms"},
		{"blocklayer/write", "blocklayer.write_ms"},
	} {
		st := byName[s.span]
		layer[s.metric+".p50"] = msOf(st.P50)
		layer[s.metric+".p99"] = msOf(st.P99)
	}
	self := rpcSelf(in.spans.Events())
	layer["rpcnet.self_ms.p50"], _ = self.quantile(0.50)
	layer["rpcnet.self_ms.p99"], _ = self.quantile(0.99)

	dev := map[string]trace.PhaseStat{}
	var spawns int64
	for _, ev := range in.dev.Events() {
		if ev.Kind == trace.KindProcSpawn {
			spawns++
		}
	}
	for _, st := range trace.Summarize(in.dev.Events()) {
		// One row per (phase, name); devices are unlabelled here.
		dev[st.Name] = st
	}
	layer["flashchan.queue_ms.p99"] = msOf(dev["chan/queue"].P99)
	layer["flashchan.bus_ms.p99"] = msOf(dev["chan/bus"].P99)
	layer["nand.flash_ms.p99"] = msOf(dev["nand/read"].P99)
	layer["sim.spawns_per_op"] = ratio(float64(spawns), float64(ops))

	pl := in.poll
	layer["flashchan.qdepth_mean"] = ratio(float64(pl.qsum), float64(pl.samples))
	layer["flashchan.qdepth_max"] = float64(pl.qmax)
	layer["flashchan.busy_frac"] = ratio(float64(pl.busy), float64(pl.samples))
	layer["blocklayer.free_erased_min"] = float64(max(pl.freeMin, 0))
}

// rpcSelf returns, for every rpcnet/do span, its duration minus that
// of its slowest rpcnet/sub child: the time the RPC layer itself added.
func rpcSelf(events []trace.Event) lat {
	type open struct {
		name   string
		parent trace.SpanID
		at     time.Duration
	}
	begun := map[trace.SpanID]open{}
	slowest := map[trace.SpanID]time.Duration{}
	var out lat
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSpanBegin:
			begun[ev.Span] = open{ev.Name, ev.Parent, ev.At}
		case trace.KindSpanEnd:
			b, ok := begun[ev.Span]
			if !ok {
				continue
			}
			delete(begun, ev.Span)
			d := ev.At - b.at
			switch b.name {
			case "rpcnet/sub":
				if d > slowest[b.parent] {
					slowest[b.parent] = d
				}
			case "rpcnet/do":
				out = append(out, d-slowest[ev.Span])
				delete(slowest, ev.Span)
			}
		}
	}
	return out
}
