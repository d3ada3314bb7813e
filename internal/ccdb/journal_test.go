package ccdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// journalRig builds a data-retaining SDF stack with a journaled slice
// for crash-and-remount tests.
func journalRig(t *testing.T, env *sim.Env) (*core.Device, *Journal, *Slice, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
	j := NewJournal()
	s := NewSlice(env, store, Config{PatchBytes: store.BlockSize(), RunsPerTier: 4, DataMode: true, Journal: j})
	return dev, j, s, cfg
}

// remountSlice crashes nothing further — the device must already be
// powered off and the journal halted — and rebuilds the slice from
// the surviving media in a fresh environment.
func remountSlice(t *testing.T, dev *core.Device, j *Journal, cfg core.Config) (*sim.Env, *Slice, ReplayReport) {
	t.Helper()
	state := dev.State()
	env := sim.NewEnv()
	mounted, err := core.Mount(env, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	var s *Slice
	var rep ReplayReport
	boot := env.Go("mount", func(p *sim.Proc) {
		layer, _, err := blocklayer.Mount(p, env, mounted, blocklayer.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		sl, rr, err := MountSlice(p, env, NewSDFStore(layer), Config{
			PatchBytes: layer.BlockSize(), RunsPerTier: 4, DataMode: true, Journal: j,
		})
		if err != nil {
			t.Error(err)
			return
		}
		s, rep = sl, rr
	})
	env.RunUntilDone(boot)
	if s == nil {
		t.Fatal("remount failed")
	}
	return env, s, rep
}

// TestTruncationKeepsUnflushedAckedPut is the journal-truncation
// safety property: a put acknowledged DURING a flush — after the
// flush snapshotted its watermark — must survive the truncation that
// flush performs when its patch lands, and replay after a crash. Only
// the records the patch actually covers may be dropped.
func TestTruncationKeepsUnflushedAckedPut(t *testing.T) {
	env := sim.NewEnv()
	dev, j, s, cfg := journalRig(t, env)

	const n = 24
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 1024) }
	fill := env.Go("fill", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := s.Put(p, fmt.Sprintf("k%02d", i), val(i), 1024); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(fill)

	// The flush's patch write takes milliseconds of virtual time; the
	// straggler put lands in that window, after the watermark.
	env.Go("flush", func(p *sim.Proc) {
		if err := s.Flush(p); err != nil {
			t.Error(err)
		}
	})
	var stragglerAcked bool
	env.Schedule(time.Millisecond, func() {
		env.Go("straggler", func(p *sim.Proc) {
			if err := s.Put(p, "straggler", val(99), 1024); err != nil {
				t.Error(err)
				return
			}
			stragglerAcked = true
		})
	})
	env.Run()
	if !stragglerAcked {
		t.Fatal("straggler put never acknowledged")
	}
	if j.TruncatedPuts() != n {
		t.Fatalf("truncated %d log records, want exactly the %d the patch covered", j.TruncatedPuts(), n)
	}
	if j.putCount() != 1 {
		t.Fatalf("journal holds %d records after truncation, want 1 (the straggler)", j.putCount())
	}

	dev.PowerLoss()
	j.Halt()
	env.Close()

	env2, s2, rep := remountSlice(t, dev, j, cfg)
	defer env2.Close()
	if rep.MemReplayed != 1 {
		t.Fatalf("replayed %d journaled puts, want 1", rep.MemReplayed)
	}
	verify := env2.Go("verify", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got, _, err := s2.Get(p, fmt.Sprintf("k%02d", i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Errorf("flushed key k%02d after remount: %v", i, err)
				return
			}
		}
		got, _, err := s2.Get(p, "straggler")
		if err != nil || !bytes.Equal(got, val(99)) {
			t.Errorf("straggler after remount: %v", err)
		}
	})
	env2.RunUntilDone(verify)
}

// TestManifestCompactionBoundsReplay churns patches through add/del
// cycles and requires the manifest to stay bounded by live state: the
// compactor rewrites it once dead records dominate, and replay over
// the compacted manifest rebuilds exactly the surviving runs.
func TestManifestCompactionBoundsReplay(t *testing.T) {
	j := NewJournal()
	keep := &patch{ref: Ref(9999), keys: []string{"keep"}, offs: []int{0}, sizes: []int{1}}
	if !j.appendRun(1, []*patch{keep}) {
		t.Fatal("appendRun rejected")
	}
	const churn = 400
	for i := 0; i < churn; i++ {
		pt := &patch{ref: Ref(i), keys: []string{"k"}, offs: []int{0}, sizes: []int{1}}
		if !j.appendRun(0, []*patch{pt}) {
			t.Fatal("appendRun rejected")
		}
		j.appendDel(pt.ref)
	}
	if j.Compactions() == 0 {
		t.Fatal("manifest never compacted under churn")
	}
	if got := j.ManifestRecords(); got > 2+manifestSlack {
		t.Fatalf("manifest holds %d records after churn, want <= %d", got, 2+manifestSlack)
	}
	runs := j.replayManifest()
	live := 0
	for _, rr := range runs {
		for _, pt := range rr.r {
			if pt.ref == keep.ref && rr.tier == 1 {
				live++
			}
		}
	}
	if live != 1 {
		t.Fatalf("replay after compaction found the live patch %d times, want 1", live)
	}
}

// TestManifestCompactionSkippedWhileHalted freezes the manifest at
// the crash instant: a halted journal must preserve exactly the
// records the crash left, not rewrite them.
func TestManifestCompactionSkippedWhileHalted(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 10; i++ {
		pt := &patch{ref: Ref(i), keys: []string{"k"}, offs: []int{0}, sizes: []int{1}}
		j.appendRun(0, []*patch{pt})
	}
	j.Halt()
	before := j.ManifestRecords()
	j.maybeCompact()
	if j.ManifestRecords() != before || j.Compactions() != 0 {
		t.Fatalf("halted journal compacted: %d -> %d records, %d compactions",
			before, j.ManifestRecords(), j.Compactions())
	}
}

// replayLive counts the patches a replay of manifest would restore.
func replayLive(manifest []manifestRecord) int {
	live := 0
	for _, rr := range (&Journal{manifest: manifest}).replayManifest() {
		live += len(rr.r)
	}
	return live
}

// TestManifestLiveCountMatchesReplay drives random add/del/halt
// sequences — including double adds, dels of unknown and already
// retired refs, and dels racing a halt — and checks after every step
// that the running live count equals the replay-derived one, and that
// manifest length and compaction count follow the rule the check
// replaced: compact after a del exactly when the manifest exceeds twice
// the replayed live count plus the slack.
func TestManifestLiveCountMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := NewJournal()
		// added is every ref ever added; live mirrors the refs a replay
		// would restore, so most dels retire a live patch.
		var added, live []Ref
		next := Ref(0)
		for step := 0; step < 3000; step++ {
			records, compactions := j.ManifestRecords(), j.Compactions()
			switch op := rng.Intn(20); {
			case op < 7:
				pts := make([]*patch, 1+rng.Intn(3)/2)
				for i := range pts {
					ref := next
					if len(added) > 0 && rng.Intn(8) == 0 {
						ref = added[rng.Intn(len(added))]
					} else {
						next++
					}
					added = append(added, ref)
					pts[i] = &patch{ref: ref, keys: []string{"k"}, offs: []int{0}, sizes: []int{1}}
				}
				ok := j.appendRun(rng.Intn(3), pts)
				want := records + len(pts)
				if !ok {
					want = records
				}
				if ok {
					for _, pt := range pts {
						live = append(live, pt.ref)
					}
				}
				if ok == j.Halted() || j.ManifestRecords() != want || j.Compactions() != compactions {
					t.Fatalf("seed %d step %d: add: ok=%v records %d -> %d, compactions %d -> %d",
						seed, step, ok, records, j.ManifestRecords(), compactions, j.Compactions())
				}
			case op < 18:
				ref := next + 1000 // never added
				switch r := rng.Intn(10); {
				case r < 8 && len(live) > 0:
					ref = live[rng.Intn(len(live))]
				case r < 9 && len(added) > 0:
					ref = added[rng.Intn(len(added))]
				}
				if i := slices.Index(live, ref); i >= 0 && !j.Halted() {
					live = slices.Delete(live, i, i+1)
				}
				wantRecords, wantCompactions := records, compactions
				if !j.Halted() {
					grown := append(slices.Clone(j.manifest), manifestRecord{op: manifestDel, ref: ref})
					wantRecords = len(grown)
					if live := replayLive(grown); len(grown) > 2*live+manifestSlack {
						wantRecords, wantCompactions = live, compactions+1
					}
				}
				j.appendDel(ref)
				if j.ManifestRecords() != wantRecords || j.Compactions() != wantCompactions {
					t.Fatalf("seed %d step %d: del %d: records %d, compactions %d; want %d, %d",
						seed, step, ref, j.ManifestRecords(), j.Compactions(), wantRecords, wantCompactions)
				}
			case op == 18:
				j.Halt()
			default:
				j.halted = false // a remount brings the log device back
			}
			if want := replayLive(j.manifest); j.live != want {
				t.Fatalf("seed %d step %d: live count %d, replay finds %d", seed, step, j.live, want)
			}
		}
		if j.Compactions() == 0 {
			t.Fatalf("seed %d: sequence never compacted", seed)
		}
	}
}
