package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// tiny shrinks a workload so that a pass takes a fraction of a second.
func tiny(w Workload) Workload {
	s := &w.Sizes
	s.Passes = 1
	switch w.Name {
	case "kv-read":
		s.Keys, s.Clients, s.MeasureMs = 400, 2, 40
	case "kv-mixed":
		s.Keys, s.HotKeys = 64, 16
		s.ReadRatePerS, s.PutRatePerS = 1000, 100
		s.WarmupMs, s.MeasureMs = 100, 150
	case "block-rw":
		s.Channels, s.BlocksPerPlane, s.PagesPerBlock = 8, 16, 16
		s.FillBlocks, s.Writers, s.Readers, s.MeasureMs = 24, 4, 8, 150
	}
	return w
}

func mustPass(t *testing.T, w Workload, seed int64, in *instr) *passResult {
	t.Helper()
	r, err := runPass(w, seed, in)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.Name, seed, err)
	}
	if e := r.e; e.attempted == 0 || e.failed != 0 || e.wrong != 0 {
		t.Fatalf("%s seed %d: attempted %d failed %d wrong %d %v", w.Name, seed, e.attempted, e.failed, e.wrong, r.info)
	}
	return r
}

// TestPassesRepeatPerSeed runs each workload at a tiny size twice with
// one seed and requires identical virtual results; then once with
// another seed, which must pass every output check; then traced, which
// must not change the simulation.
func TestPassesRepeatPerSeed(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := tiny(w)
			a := mustPass(t, w, 1, nil)
			b := mustPass(t, w, 1, nil)
			if err := sameVirtual(a, b); err != nil {
				t.Fatalf("same seed, different results: %v", err)
			}
			for k, v := range a.layer {
				if b.layer[k] != v {
					t.Errorf("same seed, per-layer %s differs: %v vs %v", k, v, b.layer[k])
				}
			}
			mustPass(t, w, 2, nil)
			traced := mustPass(t, w, 1, newInstr(w.Name))
			if err := sameVirtual(a, traced); err != nil {
				t.Fatalf("tracing changed the simulation: %v", err)
			}
			if traced.layer["sim.events_per_op"] != a.layer["sim.events_per_op"] {
				t.Errorf("sim.events_per_op: traced %v, untraced %v",
					traced.layer["sim.events_per_op"], a.layer["sim.events_per_op"])
			}
			if traced.layer["host.allocs_per_op.sim"] == 0 {
				t.Errorf("traced pass attributed no allocations to sim")
			}
		})
	}
}

// TestBenchmarkJSONMatchesSpec checks that the repository's
// BENCHMARK.json lists exactly the workloads and metrics this
// benchmark reports, with the same units and directions.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(bj.Workloads), len(spec.Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, spec.Workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []MetricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, workloads.json %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: %+v vs %s %s %s", kind, i, m, w.Name, w.Unit, w.Better)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, spec.metrics(true))
	check("per_layer", bj.PerLayer, spec.metrics(false))

	// The documentation workloads.json carries must name real things.
	isE2E := map[string]bool{}
	for _, m := range spec.metrics(true) {
		isE2E[m.Name] = true
	}
	for _, m := range spec.Metrics {
		if m.Kind != "host" && m.Kind != "virtual" {
			t.Errorf("%s: kind %q", m.Name, m.Kind)
		}
		for _, mv := range m.Moves {
			if _, err := spec.workload(mv.Workload); err != nil || !isE2E[mv.Metric] {
				t.Errorf("%s moves %s on %s: no such end-to-end metric or workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
	for _, w := range spec.Workloads {
		for _, c := range [][]string{w.TimedCommand, w.TracedCommand} {
			if !slices.Equal(c[:len(bj.Command)], bj.Command) || !slices.Contains(c, w.Name) {
				t.Errorf("%s: command %v does not run it with %v", w.Name, c, bj.Command)
			}
		}
	}
}

// TestFoldCPU profiles a busy loop in this package and checks that
// the hand-rolled pprof decoder charges it to the benchmark's layer.
func TestFoldCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	sink = x
	byLayer, err := foldCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range byLayer {
		total += v
	}
	if total == 0 {
		t.Skip("no CPU samples taken")
	}
	if share := byLayer["perfbench"] / total; share < 0.5 {
		t.Errorf("busy loop attributed %.0f%% to perfbench; fold: %v", share*100, byLayer)
	}
}

var sink float64

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "sdf/internal/cluster.(*Group).Get.func2", "sdf/internal/sim.(*Proc).main"}, "cluster"},
		{[]string{"runtime.memmove", "main.valueOf", "sdf/internal/rpcnet.(*Client).Call.func1"}, "perfbench"},
		{[]string{"runtime.coroswitch_m", "runtime.mcall"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, ""},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
