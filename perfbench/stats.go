package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"sdf/internal/sim"
)

// arrivals returns up to n due instants of a Poisson stream of rate
// per second starting at start and ending before end (n < 0: no cap).
func arrivals(rng *rand.Rand, start, end time.Duration, rate float64, n int) []time.Duration {
	var out []time.Duration
	gap := float64(time.Second) / rate
	for t := start; n < 0 || len(out) < n; {
		t += time.Duration(rng.ExpFloat64() * gap)
		if t >= end {
			break
		}
		out = append(out, t)
	}
	return out
}

// waitUntil parks p until the virtual instant due, if it is still
// ahead.
func waitUntil(p *sim.Proc, due time.Duration) {
	if now := p.Env().Now(); now < due {
		p.Wait(due - now)
	}
}

// lat is a set of virtual latency samples.
type lat []time.Duration

// quantile returns the nearest-rank q-quantile in milliseconds and the
// number of samples strictly beyond it.
func (l lat) quantile(q float64) (ms float64, beyond int) {
	if len(l) == 0 {
		return 0, 0
	}
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return msOf(s[idx]), len(s) - 1 - idx
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e2e collects the virtual end-to-end figures every workload reports.
type e2e struct {
	reads, writes lat // latency samples of successful ops in the window
	readBytes     int64
	writeBytes    int64
	window        time.Duration // virtual length the byte rates divide by
	writeWindow   time.Duration // kv-read: the preload's length; else window
	readLimit     time.Duration
	readsTried    int64 // reads attempted (RPCs on kv-read)
	readsMet      int64 // reads that succeeded within readLimit
	attempted     int64 // client ops attempted
	failed        int64 // errors, sheds, deadline misses, outstanding at the horizon
	wrong         int64 // outputs that failed the benchmark's check
	flashWritten  int64 // NAND bytes programmed over the write window
	userWritten   int64 // user bytes acknowledged over the write window, times replicas
}

// metrics turns the figures into the named virtual end-to-end metrics
// and the sample counts behind each percentile.
func (e *e2e) metrics() (map[string]float64, map[string]int) {
	v := map[string]float64{}
	n := map[string]int{}
	for _, q := range []struct {
		name string
		l    lat
		q    float64
	}{
		{"read_p50_ms", e.reads, 0.50}, {"read_p99_ms", e.reads, 0.99}, {"read_p999_ms", e.reads, 0.999},
		{"write_p50_ms", e.writes, 0.50}, {"write_p99_ms", e.writes, 0.99},
	} {
		v[q.name], n[q.name] = q.l.quantile(q.q)
	}
	n["reads"], n["writes"] = len(e.reads), len(e.writes)
	v["read_mb_s"] = ratio(float64(e.readBytes)/1e6, e.window.Seconds())
	v["write_mb_s"] = ratio(float64(e.writeBytes)/1e6, e.writeWindow.Seconds())
	v["read_slo_met_frac"] = ratio(float64(e.readsMet), float64(e.readsTried))
	v["ok_frac"] = 1 - ratio(float64(e.failed+e.wrong), float64(e.attempted))
	v["flash_write_amp"] = ratio(float64(e.flashWritten), float64(e.userWritten))
	return v, n
}

// merge pools another pass's figures into e.
func (e *e2e) merge(o *e2e) {
	e.reads = append(e.reads, o.reads...)
	e.writes = append(e.writes, o.writes...)
	e.readBytes += o.readBytes
	e.writeBytes += o.writeBytes
	e.window += o.window
	e.writeWindow += o.writeWindow
	e.readsTried += o.readsTried
	e.readsMet += o.readsMet
	e.attempted += o.attempted
	e.failed += o.failed
	e.wrong += o.wrong
	e.flashWritten += o.flashWritten
	e.userWritten += o.userWritten
}

// readDone records one completed read attempt against the limit.
func (e *e2e) readDone(d time.Duration, ok bool) {
	e.readsTried++
	if !ok {
		return
	}
	e.reads = append(e.reads, d)
	if d <= e.readLimit {
		e.readsMet++
	}
}
