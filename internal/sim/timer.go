package sim

import "time"

// Timer is a stoppable one-shot timer: when it fires, its callback runs
// in scheduler context, like a Schedule callback, and must not block.
// Timers exist for deadlines that usually die — hedges, timeouts, link
// completions that a newer transfer supersedes: a stopped or re-armed
// timer leaves nothing behind in the pending-event set, so it is never
// dispatched, never counted by Events, and never keeps Run going
// (DESIGN.md "Timers").
//
// Pending timers live in their own index-tracked 4-ary heap keyed by
// (at, seq); dispatch merges that heap with the calendar queue by the
// same key, so a timer fires exactly where a Schedule call made at its
// last Reset would have.
type Timer struct {
	env *Env
	fn  func()
	at  int64
	seq uint64
	idx int // position in env.timers; -1 when not pending
}

// NewTimer returns a stopped timer that runs fn when it fires.
func (e *Env) NewTimer(fn func()) *Timer {
	return &Timer{env: e, fn: fn, idx: -1}
}

// Reset arms the timer to fire d from now, replacing any pending
// firing. Like Schedule it takes the next sequence number at the call,
// so every other event keeps its dispatch slot.
func (t *Timer) Reset(d time.Duration) {
	e := t.env
	if d < 0 {
		d = 0
	}
	e.seq++
	t.at, t.seq = e.now+int64(d), e.seq
	if t.idx < 0 {
		e.timers.push(t)
	} else {
		e.timers.fix(t.idx)
	}
}

// Stop cancels a pending firing, if any. A stopped timer is never
// dispatched; Reset re-arms it.
func (t *Timer) Stop() {
	if t.idx >= 0 {
		t.env.timers.remove(t.idx)
	}
}

// before orders timers by (at, seq), the dispatch order of every event.
func (t *Timer) before(at int64, seq uint64) bool {
	return t.at < at || (t.at == at && t.seq < seq)
}

// timerHeap is a 4-ary min-heap of pending timers ordered by (at, seq).
// Each timer records its index, so Stop and re-arming Reset are
// O(log n) in place rather than leaving a dead entry to pop later.
type timerHeap []*Timer

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t)
	t.idx = len(*h) - 1
	h.up(t.idx)
}

func (h *timerHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	t := s[i]
	if i != n {
		s[i] = s[n]
		s[i].idx = i
	}
	s[n] = nil
	*h = s[:n]
	if i != n {
		h.fix(i)
	}
	t.idx = -1
}

// fix restores heap order after the timer at i changed its key.
func (h *timerHeap) fix(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

// up sifts the timer at i toward the root and reports whether it
// moved.
func (h *timerHeap) up(i int) bool {
	s := *h
	t := s[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 4
		p := s[parent]
		if !t.before(p.at, p.seq) {
			break
		}
		s[i] = p
		p.idx = i
		i = parent
	}
	s[i] = t
	t.idx = i
	return i != start
}

func (h *timerHeap) down(i int) {
	s := *h
	n := len(s)
	t := s[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		best := c
		for c++; c < end; c++ {
			if s[c].before(s[best].at, s[best].seq) {
				best = c
			}
		}
		b := s[best]
		if !b.before(t.at, t.seq) {
			break
		}
		s[i] = b
		b.idx = i
		i = best
	}
	s[i] = t
	t.idx = i
}

// drop unlinks every pending timer (Close): the heap stops referencing
// them, and through them their callbacks.
func (h *timerHeap) drop() {
	for _, t := range *h {
		t.idx = -1
	}
	*h = nil
}
