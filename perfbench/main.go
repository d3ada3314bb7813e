// Command perfbench is the SDF stack's benchmark. It builds the stack
// from the layers' public constructors, drives one workload from a
// seed, checks every output, and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Host metrics (wall seconds, allocations, memory) measure the
// simulator; virtual metrics measure the modelled system in simulated
// time and are identical for a given seed. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// passSeed derives the seed of pass i of a run.
func passSeed(seed int64, i int) int64 {
	return seed + int64(i)*-0x61c8864680b583eb // 2^64 / golden ratio, wrapping
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see workloads.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall seconds to keep repeating the measured pass")
	traced := fs.Int("trace", 0, "1: add a traced pass and print the per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the traced pass's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := spec.workload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The simulation runs on one driver thread. With one P the host
	// metrics also pay for the garbage collector's work, and they do
	// not depend on how busy a second core is.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(1)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d\n",
		w.Name, *seed, *seconds, *traced, nproc, runtime.GOMAXPROCS(0))

	res, err := measure(spec, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong outputs\n", res.wrong)
		return 1
	}
	return 0
}

// passResult is what one pass (set-up plus measured phase) produced.
type passResult struct {
	setup, measure time.Duration // wall
	mallocs        uint64        // over the measured phase
	ops            int64         // client ops completed in the measured phase

	e     *e2e               // virtual end-to-end figures
	layer map[string]float64 // per-layer metrics
	info  map[string]float64 // printed, not reported
}

// bench is one workload instance over a fresh simulation.
type bench interface {
	setup() error
	measure() error
	result() *passResult
	close()
}

func newBench(w Workload, seed int64, in *instr) (bench, error) {
	switch w.Name {
	case "kv-read":
		return newKVRead(w, seed, in), nil
	case "kv-mixed":
		return newKVMixed(w, seed, in), nil
	case "block-rw":
		return newBlockRW(w, seed, in), nil
	}
	return nil, fmt.Errorf("workload %q has no implementation", w.Name)
}

// runPass builds a fresh stack, preloads it, and runs the measured
// phase, timing both on the host clock. With in set it also traces
// and profiles the measured phase.
func runPass(w Workload, seed int64, in *instr) (*passResult, error) {
	b, err := newBench(w, seed, in)
	if err != nil {
		return nil, err
	}
	defer b.close()
	t0 := hostClock()
	if err := b.setup(); err != nil {
		return nil, err
	}
	setup := hostClock().Sub(t0)
	runtime.GC()
	var prof *hostProfile
	if in != nil {
		if prof, err = startHostProfile(); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := hostClock()
	err = b.measure()
	elapsed := hostClock().Sub(t1)
	runtime.ReadMemStats(&m1)
	var cpuNs, allocs map[string]float64
	if prof != nil {
		var perr error
		cpuNs, allocs, perr = prof.stop()
		err = errors.Join(err, perr)
	}
	if err != nil {
		return nil, err
	}
	r := b.result()
	r.setup, r.measure, r.mallocs = setup, elapsed, m1.Mallocs-m0.Mallocs
	if prof != nil {
		attribute(r, cpuNs, allocs)
	}
	return r, nil
}

// attribute adds the per-layer host metrics of a profiled pass.
func attribute(r *passResult, cpuNs, allocs map[string]float64) {
	var cpuTotal, allocTotal float64
	for _, v := range cpuNs {
		cpuTotal += v
	}
	for _, v := range allocs {
		allocTotal += v
	}
	for _, l := range hostLayers {
		r.layer["host.cpu_us_per_op."+l] = ratio(cpuNs[l]/1e3, float64(r.ops))
		r.layer["host.allocs_per_op."+l] = ratio(allocs[l], float64(r.ops))
	}
	if r.info == nil {
		r.info = map[string]float64{}
	}
	r.layer["host.unattributed_cpu_frac"] = ratio(cpuNs[""], cpuTotal)
	r.layer["host.unattributed_alloc_frac"] = ratio(allocs[""], allocTotal)
	r.info["profile_cpu_ms"] = cpuTotal / 1e6
	r.info["profile_allocs"] = allocTotal
}

// Result is the JSON line the benchmark ends with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	wrong     int64
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs passes (set-up plus measured phase) and reports pooled
// virtual metrics and median host metrics. The first Sizes.Passes
// passes each run from their own seed derived from seed, and their
// samples are pooled into the virtual metrics; while the time budget
// lasts further passes repeat those seeds in turn, and each must
// reproduce its seed's first pass exactly. Host metrics and setup_s
// are medians over all passes but the first, which also pays for
// growing the process's heap.
//
// With traced set it spends half the budget on untraced passes of the
// first seed and then runs one traced pass of it, whose virtual
// results must equal the untraced ones exactly.
func measure(spec *Spec, w Workload, seed int64, budget time.Duration, traced bool, outDir string) (*Result, error) {
	start := hostClock()
	distinct := w.Sizes.Passes
	if traced {
		budget /= 2
		distinct = 1
	}
	var firsts []*passResult
	pooled := &e2e{}
	var setups, rates, allocs, hostSecs []float64
	passes := 0
	for ; passes < distinct || hostClock().Sub(start) < budget; passes++ {
		i := passes % distinct
		r, err := runPass(w, passSeed(seed, i), nil)
		if err != nil {
			return nil, err
		}
		if passes < distinct {
			firsts = append(firsts, r)
			pooled.merge(r.e)
		} else if err := sameVirtual(firsts[i], r); err != nil {
			return nil, fmt.Errorf("pass %d repeated pass %d's seed with other results: %w", passes+1, i+1, err)
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.ops)/r.measure.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		hostSecs = append(hostSecs, r.measure.Seconds())
	}
	if len(rates) > 1 {
		setups, rates, allocs, hostSecs = setups[1:], rates[1:], allocs[1:], hostSecs[1:]
	}
	virt, counts := pooled.metrics()
	fmt.Printf("# %d passes (%d seeds pooled); samples: reads=%d writes=%d\n", passes, len(firsts), counts["reads"], counts["writes"])
	for _, q := range []string{"read_p50_ms", "read_p99_ms", "read_p999_ms", "write_p50_ms", "write_p99_ms"} {
		fmt.Printf("#   %s: %d samples beyond\n", q, counts[q])
	}
	fmt.Printf("#   host ops/s per pass after the first: %.0f\n", rates)
	printInfo(firsts[0].info)

	res := &Result{Correct: pooled.wrong == 0, Attempted: pooled.attempted, Failed: pooled.failed + pooled.wrong,
		Metrics: map[string]Metric{}, wrong: pooled.wrong}
	host := map[string]float64{
		"setup_s":        median(setups),
		"host_ops_per_s": median(rates),
		"allocs_per_op":  median(allocs),
		"max_rss_mb":     maxRSSMB(),
	}
	var metrics []MetricSpec
	var values map[string]float64
	if !traced {
		metrics = spec.metrics(true)
		values = host
		for k, v := range virt {
			values[k] = v
		}
	} else {
		in := newInstr(w.Name)
		tr, err := runPass(w, passSeed(seed, 0), in)
		if err != nil {
			return nil, err
		}
		if err := sameVirtual(firsts[0], tr); err != nil {
			return nil, fmt.Errorf("tracing changed the simulation: %w", err)
		}
		printInfo(tr.info)
		values = tr.layer
		values["trace.overhead_frac"] = tr.measure.Seconds()/median(hostSecs) - 1
		if err := writeSpans(in, filepath.Join(outDir, "perfbench-spans-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
		metrics = spec.metrics(false)
	}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok && !slices.Contains(w.UnusedLayers, m.Layer) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Printf("%-36s %14s %s\n", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit)
		res.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// sameVirtual reports the first virtual end-to-end metric on which two
// passes of one seed differ.
func sameVirtual(a, b *passResult) error {
	va, _ := a.e.metrics()
	vb, _ := b.e.metrics()
	keys := make([]string, 0, len(va))
	for k := range va {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if va[k] != vb[k] {
			return fmt.Errorf("%s: %v vs %v", k, va[k], vb[k])
		}
	}
	if a.e.attempted != b.e.attempted || a.e.failed != b.e.failed || a.e.wrong != b.e.wrong {
		return fmt.Errorf("ops attempted/failed/wrong: %d/%d/%d vs %d/%d/%d",
			a.e.attempted, a.e.failed, a.e.wrong, b.e.attempted, b.e.failed, b.e.wrong)
	}
	return nil
}

func printInfo(info map[string]float64) {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("#   %s: %g\n", k, info[k])
	}
}

// writeSpans writes the benchmark's spans of the traced pass as JSONL.
func writeSpans(in *instr, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := in.spans.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// hostClock reads the wall clock. Host time is what the host metrics
// measure; it never reaches the simulation.
func hostClock() time.Time {
	return time.Now() //sdflint:allow nowallclock host metrics time the simulator itself
}

// maxRSSMB is the process's peak resident set size, from
// /proc/self/status, or the runtime's view of memory obtained from the
// OS where that file does not exist.
func maxRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
