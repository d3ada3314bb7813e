package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/coord"
	"sdf/internal/core"
	"sdf/internal/metrics"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// kvStack is a 3-replica CCDB cluster on SDF, built from the layers'
// public constructors: one core.Device, blocklayer.Layer and ccdb.Slice
// per replica node, a cluster.Group over the nodes, and an rpcnet
// server in front. With mixed set it also stores real bytes and runs
// the journal, FTL checkpoints, the erase-window coordinator, SLO
// admission and static wear leveling.
type kvStack struct {
	env      *sim.Env
	in       *instr
	devs     []*core.Device
	layers   []*blocklayer.Layer
	stores   []*timedStore
	slices   []*ccdb.Slice
	journals []*ccdb.Journal
	group    *cluster.Group
	net      *rpcnet.Network
	co       *coord.Coordinator
	adm      *coord.Admission
	userAck  int64 // user bytes of acknowledged Puts, all time
}

func newKVStack(env *sim.Env, in *instr, w Workload, seed int64, mixed bool) (*kvStack, error) {
	s := w.Sizes
	k := &kvStack{env: env, in: in}
	var slo *metrics.SLO
	if mixed {
		k.co = coord.New(env, coord.Config{
			Window:          5 * time.Millisecond,
			MaxWait:         60 * time.Millisecond,
			ForceFreeBlocks: 1,
		})
		// The bucket admits twice the offered Put rate while the read
		// SLO holds and throttles by 1/burn when it does not, but never
		// below 1.5x the offered rate and with room to delay Poisson
		// bursts: admission delays writes here, it does not shed them.
		admCfg := coord.DefaultAdmissionConfig(2 * s.PutRatePerS)
		admCfg.Burst = 16
		admCfg.MaxDelay = 25 * time.Millisecond
		admCfg.MinFactor = 0.75
		k.adm = coord.NewAdmission(env, admCfg, func() float64 {
			if slo == nil {
				return 0
			}
			return slo.Burn("read_p99")
		})
	}
	var nodes []*cluster.Node
	for r := 0; r < s.Replicas; r++ {
		cfg := core.DefaultConfig()
		cfg.Channels = s.Channels
		cfg.Channel.Nand.BlocksPerPlane = s.BlocksPerPlane
		cfg.Channel.Nand.PagesPerBlock = s.PagesPerBlock
		cfg.Channel.SparePerPlane = 2
		blCfg := blocklayer.DefaultConfig()
		// Read-only: a fan-in no preload reaches, so nothing compacts.
		sliceCfg := ccdb.Config{RunsPerTier: 1 << 20}
		var member *coord.Member
		if mixed {
			cfg.Channel.Nand.RetainData = true
			cfg.Channel.VerifyCRC = true
			cfg.Channel.PrioritizeReads = true
			cfg.Channel.SparePerPlane = 4
			cfg.Channel.CheckpointEvery = 16
			blCfg.StaticWL = true
			blCfg.WearSpreadThreshold = 4
			member = k.co.Register(fmt.Sprintf("r%d", r+1))
			blCfg.EraseGate = member
			j := ccdb.NewJournal()
			k.journals = append(k.journals, j)
			sliceCfg = ccdb.Config{RunsPerTier: 2, DataMode: true, Journal: j}
		}
		dev, err := core.New(env, cfg)
		if err != nil {
			return nil, err
		}
		bl := blocklayer.New(env, dev, blCfg)
		st := &timedStore{Storage: ccdb.NewSDFStore(bl), env: env, in: in}
		sliceCfg.PatchBytes = st.BlockSize()
		slice := ccdb.NewSlice(env, st, sliceCfg)
		node := cluster.NewNode(env, fmt.Sprintf("r%d", r+1), slice)
		if member != nil {
			node.SetWindow(member)
		}
		k.devs = append(k.devs, dev)
		k.layers = append(k.layers, bl)
		k.stores = append(k.stores, st)
		k.slices = append(k.slices, slice)
		nodes = append(nodes, node)
	}
	ccfg := cluster.DefaultConfig()
	netCfg := rpcnet.DefaultConfig()
	if mixed {
		// CoDesign's deadline-aware routing and lean RPC costs.
		ccfg.HedgeAfter = 2 * time.Millisecond
		ccfg.ReadDeadline = 6 * time.Millisecond
		ccfg.Admission = k.adm
		netCfg.RPCOverhead = 20 * time.Microsecond
		netCfg.SubRequestCPU = 10 * time.Microsecond
		netCfg.RequestTimeout = 5 * time.Millisecond
		netCfg.RetryBackoff = time.Millisecond
	}
	netCfg.Seed = seed
	g, err := cluster.NewGroup(env, ccfg, nodes...)
	if err != nil {
		return nil, err
	}
	k.group = g
	k.net = rpcnet.NewNetwork(env, netCfg)
	if mixed {
		// The read-tail objective behind admission control: p99 within
		// the workload's read limit in 100 ms windows, as in CoDesign.
		reg := metrics.NewRegistry()
		g.RegisterMetrics(reg)
		slo = metrics.NewSLO(env, reg, 100*time.Millisecond, metrics.Objective{
			Name: "read_p99", Kind: metrics.QuantileBelow,
			Metric: "cluster_read_latency_seconds", Q: 0.99,
			Threshold: w.ReadLimitMs / 1e3, Budget: 0.1,
		})
	}
	return k, nil
}

// put writes one value through the group and counts acknowledged user
// bytes.
func (k *kvStack) put(p *sim.Proc, key string, value []byte, size int, op int64) error {
	span := k.in.begin(k.env, 0, "cluster/put", op)
	err := k.group.Put(p, key, value, size)
	k.in.end(k.env, span)
	if err == nil {
		k.userAck += int64(size)
	}
	return err
}

// flushAll writes every slice's memtable out as a patch.
func (k *kvStack) flushAll(p *sim.Proc) error {
	for _, s := range k.slices {
		if err := s.Flush(p); err != nil {
			return err
		}
	}
	return nil
}

// devCounters is a snapshot of the device-side layers' public
// counters: kernel events, flashchan bytes, PCIe bytes to the host and
// block-layer activity.
type devCounters struct {
	events                   uint64
	devRead, devWritten      int64
	devErased, toHost        int64
	blWrites, blInline, blBg int64
	blRetries                int64
}

func devSnapshot(env *sim.Env, devs []*core.Device, layers []*blocklayer.Layer) devCounters {
	c := devCounters{events: env.Events()}
	for i, d := range devs {
		r, w, e := d.Counters()
		c.devRead += r
		c.devWritten += w
		c.devErased += e
		toHost, _ := d.PCIe().Moved()
		c.toHost += toHost
		writes, _, inline, bg := layers[i].Stats()
		c.blWrites += writes
		c.blInline += inline
		c.blBg += bg
		_, retries, _ := layers[i].HealthStats()
		c.blRetries += retries
	}
	return c
}

// devMetrics fills the kernel, block-layer, nand and hostif per-layer
// metrics for the window between two snapshots. nand counts come from
// flashchan byte counters: pages read and programmed, and physical
// blocks erased (one per plane for each logical block).
func devMetrics(m map[string]float64, d *core.Device, a, b devCounters, ops int64, window time.Duration, pollerEvents uint64) {
	page := float64(d.PageSize())
	planes := float64(d.Channel(0).Planes())
	m["sim.events_per_op"] = ratio(float64(b.events-a.events-pollerEvents), float64(ops))
	m["blocklayer.inline_erase_frac"] = ratio(float64(b.blInline-a.blInline), float64(b.blWrites-a.blWrites))
	m["blocklayer.read_retries"] = float64(b.blRetries - a.blRetries)
	m["nand.reads_per_op"] = ratio(float64(b.devRead-a.devRead)/page, float64(ops))
	m["nand.programs_per_op"] = ratio(float64(b.devWritten-a.devWritten)/page, float64(ops))
	m["nand.erases_per_op"] = ratio(float64(b.devErased-a.devErased)*planes, float64(ops))
	m["hostif.to_host_mb_s"] = ratio(float64(b.toHost-a.toHost)/1e6, window.Seconds())
}

// kvCounters adds the cluster-side layers' counters to devCounters.
type kvCounters struct {
	devCounters
	group                    cluster.Stats
	slice                    ccdb.Stats
	storeWritten             int64
	coord                    coord.Stats
	adm                      coord.AdmissionStats
	rpcRetries, rpcDeadlines int64
	userAck                  int64
}

func (k *kvStack) snapshot() kvCounters {
	c := kvCounters{devCounters: devSnapshot(k.env, k.devs, k.layers), group: k.group.Stats(), userAck: k.userAck}
	for i, s := range k.slices {
		st := s.Stats()
		c.slice.Gets += st.Gets
		c.slice.GetsFromMem += st.GetsFromMem
		c.slice.Compactions += st.Compactions
		c.slice.CompactionReads += st.CompactionReads
		c.storeWritten += k.stores[i].written
	}
	if k.co != nil {
		c.coord = k.co.Stats()
		c.adm = k.adm.Stats()
	}
	_, c.rpcRetries, c.rpcDeadlines = k.net.Stats()
	return c
}

// layerMetrics fills the counter-based per-layer metrics for the
// window between two snapshots.
func (k *kvStack) layerMetrics(m map[string]float64, a, b kvCounters, ops int64, window time.Duration, pollerEvents uint64) {
	gets := float64(b.group.Gets - a.group.Gets)
	sliceGets := float64(b.slice.Gets - a.slice.Gets)
	fromMem := float64(b.slice.GetsFromMem - a.slice.GetsFromMem)
	m["rpcnet.retries"] = float64(b.rpcRetries - a.rpcRetries)
	m["rpcnet.deadlines"] = float64(b.rpcDeadlines - a.rpcDeadlines)
	m["cluster.replica_reads_per_get"] = ratio(sliceGets, gets)
	m["cluster.hedges_per_get"] = ratio(float64(b.group.Hedges-a.group.Hedges), gets)
	m["cluster.failovers_per_get"] = ratio(float64(b.group.Failovers-a.group.Failovers), gets)
	m["cluster.window_deprioritized_reads"] = float64(b.group.WindowDeprioritizedReads - a.group.WindowDeprioritizedReads)
	m["ccdb.storage_reads_per_get"] = ratio(sliceGets-fromMem, sliceGets)
	m["ccdb.memtable_hit_frac"] = ratio(fromMem, sliceGets)
	m["ccdb.compactions"] = float64(b.slice.Compactions - a.slice.Compactions)
	m["ccdb.compaction_patch_reads"] = float64(b.slice.CompactionReads - a.slice.CompactionReads)
	replicated := float64((b.userAck - a.userAck) * int64(len(k.slices)))
	m["ccdb.storage_bytes_per_user_byte"] = ratio(float64(b.storeWritten-a.storeWritten), replicated)
	var records, jbytes int
	for _, j := range k.journals {
		records += j.ManifestRecords()
		jbytes += int(j.Bytes())
	}
	m["ccdb.manifest_records"] = float64(int64(records))
	m["ccdb.journal_bytes"] = float64(int64(jbytes))
	m["coord.grants"] = float64(b.coord.Grants - a.coord.Grants)
	m["coord.deferrals"] = float64(b.coord.Deferrals - a.coord.Deferrals)
	m["coord.forced_frac"] = ratio(float64(b.coord.Forced-a.coord.Forced), float64(b.blBg-a.blBg))
	admits := float64(b.adm.Admitted + b.adm.Delayed + b.adm.Shed - a.adm.Admitted - a.adm.Delayed - a.adm.Shed)
	m["coord.admit_delayed_frac"] = ratio(float64(b.adm.Delayed-a.adm.Delayed), admits)
	m["coord.admit_shed_frac"] = ratio(float64(b.adm.Shed-a.adm.Shed), admits)
	devMetrics(m, k.devs[0], a.devCounters, b.devCounters, ops, window, pollerEvents)
}

// timedStore is the ccdb.Storage the slices write through: the SDF
// block layer, plus a byte count and, in the traced pass, a span
// around every block-layer call.
type timedStore struct {
	ccdb.Storage
	env     *sim.Env
	in      *instr
	written int64
}

func (s *timedStore) Write(p *sim.Proc, data []byte) (ccdb.Ref, error) {
	span := s.in.begin(s.env, 0, "blocklayer/write", 0)
	ref, err := s.Storage.Write(p, data)
	s.in.end(s.env, span)
	if err == nil {
		s.written += int64(s.BlockSize())
	}
	return ref, err
}

func (s *timedStore) ReadAt(p *sim.Proc, ref ccdb.Ref, off, size int) ([]byte, error) {
	span := s.in.begin(s.env, 0, "blocklayer/read", 0)
	data, err := s.Storage.ReadAt(p, ref, off, size)
	s.in.end(s.env, span)
	return data, err
}

// valueOf returns the value of (key, version) under seed in dst's
// storage: its length is uniform in [mean/2, 3*mean/2] and its bytes
// pseudo-random. Every value kv-mixed stores or expects is derived this
// way, never remembered.
func valueOf(dst []byte, key string, version int, seed int64, mean int) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ uint64(version)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	n := (mean/2 + int(next()%uint64(mean+1))) &^ 7
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], next())
	}
	return dst
}
