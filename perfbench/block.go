package main

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// blockRW is the block-rw workload: device level on the 44-channel
// card, timing-only. Closed-loop writers put 8 MB blocks through the
// block layer and free the oldest block to hold fill constant, keeping
// the background erasers busy; closed-loop readers read random 8 KB
// pages of live blocks beside them.
type blockRW struct {
	w    Workload
	seed int64
	env  *sim.Env
	in   *instr
	dev  *core.Device
	bl   *blocklayer.Layer
	e    e2e

	rng    *rand.Rand
	lastID blocklayer.BlockID
	live   []blocklayer.BlockID        // oldest first
	pins   map[blocklayer.BlockID]int  // reads in flight per block
	dead   map[blocklayer.BlockID]bool // freed while pinned
	ops    int64                       // pages read or written: the unit of host work here

	before, after devCounters
}

func newBlockRW(w Workload, seed int64, in *instr) *blockRW {
	return &blockRW{w: w, seed: seed, env: sim.NewEnv(), in: in, rng: rand.New(rand.NewSource(seed)),
		pins: map[blocklayer.BlockID]int{}, dead: map[blocklayer.BlockID]bool{}}
}

func (b *blockRW) setup() error {
	s := b.w.Sizes
	cfg := core.DefaultConfig()
	cfg.Channels = s.Channels
	cfg.Channel.Nand.BlocksPerPlane = s.BlocksPerPlane
	cfg.Channel.Nand.PagesPerBlock = s.PagesPerBlock
	cfg.Channel.SparePerPlane = 2
	// Reads take priority over queued writes and erases (the scheduling
	// the paper plans in §2.4, as kv-mixed runs it), so a read waits for
	// at most the one command in service.
	cfg.Channel.PrioritizeReads = true
	dev, err := core.New(b.env, cfg)
	if err != nil {
		return err
	}
	b.dev = dev
	b.bl = blocklayer.New(b.env, dev, blocklayer.DefaultConfig())
	// Fill: FillBlocks live blocks, written by the writers concurrently.
	var failed error
	claimed := 0
	boot := b.env.Go("perfbench/fill", func(p *sim.Proc) {
		var ws []*sim.Proc
		for range s.Writers {
			ws = append(ws, b.env.Go("perfbench/filler", func(wp *sim.Proc) {
				for claimed < s.FillBlocks && failed == nil {
					claimed++
					id := b.newID()
					if _, err := b.bl.Write(wp, id, nil); err != nil {
						failed = err
						return
					}
					b.live = append(b.live, id)
				}
			}))
		}
		for _, w := range ws {
			p.Join(w)
		}
	})
	b.env.RunUntilDone(boot)
	if failed != nil {
		return fmt.Errorf("block-rw fill: %w", failed)
	}
	return nil
}

// newID returns the next block ID. IDs are sequential, as from the
// cluster's ID service, so the block layer's hash placement walks the
// channels round-robin.
func (b *blockRW) newID() blocklayer.BlockID {
	b.lastID++
	return b.lastID
}

// think draws an exponential pause of the given mean.
func think(rng *rand.Rand, meanMs float64) time.Duration {
	return time.Duration(rng.ExpFloat64() * meanMs * float64(time.Millisecond))
}

// free releases the oldest live block, deferring the free while a
// reader still has it pinned.
func (b *blockRW) freeOldest(p *sim.Proc) error {
	id := b.live[0]
	b.live = b.live[1:]
	if b.pins[id] > 0 {
		b.dead[id] = true
		return nil
	}
	return b.bl.Free(p, id)
}

func (b *blockRW) measure() error {
	s := b.w.Sizes
	env := b.env
	b.e.readLimit = time.Duration(b.w.ReadLimitMs * float64(time.Millisecond))
	t0 := env.Now()
	end := t0 + time.Duration(s.MeasureMs)*time.Millisecond
	b.in.attach(env)
	b.in.startPoller(env, []*core.Device{b.dev}, []*blocklayer.Layer{b.bl}, time.Millisecond, end)
	b.before = devSnapshot(env, []*core.Device{b.dev}, []*blocklayer.Layer{b.bl})
	page, pages := b.dev.PageSize(), b.dev.BlockSize()/b.dev.PageSize()
	var op int64
	joiner := env.Go("perfbench/clients", func(p *sim.Proc) {
		var procs []*sim.Proc
		for range s.Writers {
			wrng := rand.New(rand.NewSource(b.rng.Int63()))
			procs = append(procs, env.Go("perfbench/writer", func(wp *sim.Proc) {
				// Seeded pauses keep the writers, and the readers queued
				// behind them, from marching in step across the channels.
				for wp.Wait(think(wrng, s.WriteThinkMs)); env.Now() < end; wp.Wait(think(wrng, s.WriteThinkMs)) {
					op++
					id, start := b.newID(), env.Now()
					b.e.attempted++
					span := b.in.begin(env, 0, "blocklayer/write", op)
					_, err := b.bl.Write(wp, id, nil)
					b.in.end(env, span)
					if err != nil {
						b.e.failed++
						continue
					}
					b.ops += int64(pages)
					b.e.writes = append(b.e.writes, env.Now()-start)
					b.e.writeBytes += int64(b.dev.BlockSize())
					b.live = append(b.live, id)
					if len(b.live) > s.FillBlocks {
						if err := b.freeOldest(wp); err != nil {
							b.e.failed++
						}
					}
				}
			}))
		}
		for r := 0; r < s.Readers; r++ {
			rrng := rand.New(rand.NewSource(b.rng.Int63()))
			procs = append(procs, env.Go("perfbench/reader", func(rp *sim.Proc) {
				// A seeded pause before each read keeps readers from
				// arriving in step with the commands they queue behind.
				for rp.Wait(think(rrng, s.ReadThinkMs)); env.Now() < end; rp.Wait(think(rrng, s.ReadThinkMs)) {
					op++
					id := b.live[rrng.Intn(len(b.live))]
					off := rrng.Intn(pages) * page
					start := env.Now()
					b.e.attempted++
					b.pins[id]++
					span := b.in.begin(env, 0, "blocklayer/read", op)
					data, err := b.bl.Read(rp, id, off, page)
					b.in.end(env, span)
					if b.pins[id]--; b.pins[id] == 0 {
						delete(b.pins, id)
						if b.dead[id] {
							delete(b.dead, id)
							if ferr := b.bl.Free(rp, id); ferr != nil {
								b.e.failed++
							}
						}
					}
					switch {
					case err != nil:
						b.e.failed++
						b.e.readDone(0, false)
					case data != nil && len(data) != page:
						// Timing-only mode returns no bytes; a buffer
						// must be exactly the page asked for.
						b.e.wrong++
						b.e.readDone(0, false)
					default:
						b.ops++
						b.e.readBytes += int64(page)
						b.e.readDone(env.Now()-start, true)
					}
				}
			}))
		}
		for _, pr := range procs {
			p.Join(pr)
		}
	})
	env.RunUntilDone(joiner)
	if !joiner.Done() {
		return fmt.Errorf("block-rw: clients did not finish")
	}
	b.e.window = env.Now() - t0
	b.e.writeWindow = b.e.window
	b.after = devSnapshot(env, []*core.Device{b.dev}, []*blocklayer.Layer{b.bl})
	return nil
}

func (b *blockRW) result() *passResult {
	b.e.flashWritten = b.after.devWritten - b.before.devWritten
	b.e.userWritten = b.e.writeBytes
	e := b.e // a copy: the result must not keep the simulation alive
	r := &passResult{e: &e, layer: map[string]float64{}, ops: b.ops}
	devMetrics(r.layer, b.dev, b.before, b.after, b.ops, b.e.window, b.in.pollEvents())
	b.in.spanMetrics(r.layer, b.ops)
	return r
}

func (b *blockRW) close() { b.env.Close() }
