package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// hostLayers are the names host CPU and allocations are attributed to:
// the SDF packages under sdf/internal, the Go runtime's background
// work, and the benchmark's own code.
var hostLayers = []string{"sim", "nand", "flashchan", "hostif", "core", "blocklayer", "coord",
	"ccdb", "cluster", "rpcnet", "metrics", "trace", "runtime", "perfbench"}

// Profiling rates of the traced pass: CPU samples per second, and the
// mean bytes between sampled allocations (estimates are unsampled the
// way pprof does it).
const (
	cpuProfileHz   = 500
	memProfileRate = 2048
)

// layerOf folds one stack, leaf first, to the layer of its innermost
// frame in this module: an sdf/internal/<layer> package or the
// benchmark's main package. Runtime frames such as malloc or stack
// growth are thereby charged to their caller. A stack with no module
// frame is the runtime's own when it is a GC or sweep worker, and
// unattributed ("") otherwise.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "sdf/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		// The command's own package is "main", and "sdf/perfbench"
		// when built as a test.
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "sdf/perfbench.") {
			return "perfbench"
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "iter.Pull") || strings.HasPrefix(f, "runtime.coroswitch") || f == "runtime.corostart" {
			return "sim"
		}
	}
	for _, f := range funcs {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime._GC", "runtime.gcMarkDone", "runtime.forcegchelper", "runtime.runfinq":
			return "runtime"
		}
	}
	return ""
}

// hostProfile is a running CPU and allocation profile of one measured
// phase.
type hostProfile struct {
	cpu       bytes.Buffer
	memBefore map[[32]uintptr]runtime.MemProfileRecord
	oldRate   int
}

func startHostProfile() (*hostProfile, error) {
	h := &hostProfile{oldRate: runtime.MemProfileRate}
	runtime.MemProfileRate = memProfileRate
	h.memBefore = memRecords()
	// SetCPUProfileRate before StartCPUProfile raises the rate above
	// pprof's fixed 100 Hz; the runtime notes the override on stderr.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&h.cpu); err != nil {
		runtime.SetCPUProfileRate(0)
		runtime.MemProfileRate = h.oldRate
		return nil, err
	}
	return h, nil
}

// stop ends both profiles and returns host CPU nanoseconds and
// allocations per layer ("" is unattributed).
func (h *hostProfile) stop() (cpuNs, allocs map[string]float64, err error) {
	pprof.StopCPUProfile()
	allocs = map[string]float64{}
	for stk, r := range memRecords() {
		before := h.memBefore[stk]
		objs := r.AllocObjects - before.AllocObjects
		if objs <= 0 {
			continue
		}
		size := r.AllocBytes - before.AllocBytes
		// Unsample: an allocation of size s was recorded with
		// probability 1 - exp(-s/rate).
		avg := float64(size) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/memProfileRate))
		allocs[layerOf(stackFuncs(r.Stack()))] += float64(objs) * scale
	}
	runtime.MemProfileRate = h.oldRate
	cpuNs, err = foldCPU(h.cpu.Bytes())
	return cpuNs, allocs, err
}

// memRecords snapshots the allocation profile, keyed by stack.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	// The profile publishes a GC cycle late; two cycles flush it.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[r.Stack0] = r
	}
	return out
}

func stackFuncs(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// foldCPU decodes a gzipped pprof CPU profile and sums each sample's
// CPU nanoseconds into the layer of its stack. It reads only the
// fields it needs: samples, locations (with inlined lines), functions
// and the string table.
func foldCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location -> function ids, innermost first
	funcName := map[uint64]int64{}    // function -> string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		var funcs []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		// values are (samples/count, cpu/nanoseconds).
		out[layerOf(funcs)] += float64(s.values[1])
	}
	return out, nil
}

// pbFields walks the top-level fields of a protobuf message, passing
// each field's number and either its varint value or its bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, packed (b set)
// or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
