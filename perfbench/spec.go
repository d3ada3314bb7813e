package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json is the benchmark's single description of itself: the
// workloads with their sizes and read latency limits, and every metric
// with its unit, kind, layer and the end-to-end metric it should move.
//
//go:embed workloads.json
var specJSON []byte

// Spec is the parsed workloads.json.
type Spec struct {
	Workloads []Workload   `json:"workloads"`
	Metrics   []MetricSpec `json:"metrics"`
}

// Workload is one input mix the benchmark can run. workloads.json also
// records, for readers, why each workload exists and whether its loop
// is open or closed.
type Workload struct {
	Name string `json:"name"`
	// ReadLimitMs is the read latency limit behind read_slo_met_frac.
	ReadLimitMs float64 `json:"read_limit_ms"`
	// UnusedLayers are layers the workload never calls; their virtual
	// per-layer metrics read 0.
	UnusedLayers  []string `json:"unused_layers,omitempty"`
	Sizes         Sizes    `json:"sizes"`
	TimedCommand  []string `json:"timed_command"`
	TracedCommand []string `json:"traced_command"`
}

// Sizes are a workload's inputs. Fields a workload does not use are
// zero.
type Sizes struct {
	Replicas       int `json:"replicas,omitempty"`
	Channels       int `json:"channels"`
	BlocksPerPlane int `json:"blocks_per_plane"`
	PagesPerBlock  int `json:"pages_per_block"`

	Keys       int `json:"keys,omitempty"`     // preloaded dataset
	HotKeys    int `json:"hot_keys,omitempty"` // overwritten by the Put stream
	ValueBytes int `json:"value_bytes,omitempty"`
	// LoadRatePerS is kv-read's preload rate (Poisson arrivals).
	LoadRatePerS float64 `json:"load_rate_per_s,omitempty"`

	Clients int `json:"clients,omitempty"` // closed-loop RPC clients
	Batch   int `json:"batch,omitempty"`   // Gets per RPC

	Readers      int     `json:"readers,omitempty"`
	ReadRatePerS float64 `json:"read_rate_per_s,omitempty"` // open-loop Poisson, all readers together
	Writers      int     `json:"writers,omitempty"`
	PutRatePerS  float64 `json:"put_rate_per_s,omitempty"` // open-loop Poisson, all writers together

	FillBlocks   int     `json:"fill_blocks,omitempty"`    // live blocks held by block-rw
	ReadThinkMs  float64 `json:"read_think_ms,omitempty"`  // block-rw readers' mean pause
	WriteThinkMs float64 `json:"write_think_ms,omitempty"` // block-rw writers' mean pause

	// Passes is how many passes, each from its own seed derived from
	// --seed, a run pools into its virtual metrics.
	Passes int `json:"passes"`

	WarmupMs  int `json:"warmup_ms,omitempty"`
	MeasureMs int `json:"measure_ms"`
	GraceMs   int `json:"grace_ms,omitempty"` // open-loop drain before the horizon
}

// MetricSpec documents one reported metric (workloads.json also gives
// the end-to-end ones a description).
type MetricSpec struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Kind     string `json:"kind"` // "host" or "virtual"
	Better   string `json:"better"`
	Layer    string `json:"layer"`
	EndToEnd bool   `json:"end_to_end"`
	// Moves names the end-to-end metric, and the workload, a change
	// in this metric should move.
	Moves []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) workload(name string) (Workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metrics returns the end-to-end or the per-layer metric specs, in
// file order.
func (s *Spec) metrics(endToEnd bool) []MetricSpec {
	var out []MetricSpec
	for _, m := range s.Metrics {
		if m.EndToEnd == endToEnd {
			out = append(out, m)
		}
	}
	return out
}
