package sim

// This file is the engine's hot-path plumbing: the typed event queue and
// the parked-worker bitset. Neither allocates in steady state — backing
// arrays are reused once they reach their high-water marks — which the
// zero-alloc gates in alloc_test.go pin.

// mqueue is the engine's queue of asks and completions, ordered by
// (at, ask-before-completion, seq). It is a calendar queue rather than a
// heap: the engine's pushes are monotone (every event is scheduled at or
// after the time of the event being processed — completion finishes,
// re-asks, reopen retries and task-end events all derive from the
// current event's time), so near-future events land in a ring of
// per-tick buckets with O(1) push and pop, and only far-future events
// (beyond the mqWindow horizon — long serial actions, long tasks) take
// the slow path through a small overflow heap. With tens of busy
// workers the old heap's sift costs — two pops and pushes per task
// across a ~P-deep heap — were the single largest line in the engine
// profile; the calendar pop is a bounds check and an index increment.
//
// Payloads are stored once, in a freelisted slot array; buckets and the
// overflow heap hold 4-byte slot indices. With many workers the asks of
// a whole machine cluster on a few ticks, and index lists keep each
// bucket's high-water footprint at 4 bytes per item instead of a full
// ~90-byte mitem copy. Overflow migration moves an index, not a
// payload.
//
// Determinism: the required order is a strict total order, and the
// bucket layout reproduces it literally — buckets advance in time
// order, each bucket holds asks and completions in separate
// append-order (= seq-order) lists, and asks drain before completions.
// The overflow heap orders by the same key, and items migrate from it
// into buckets whenever the window advances, before any same-tick
// bucket pushes can land behind them, so FIFO-within-tick is preserved
// across the two structures. The golden suite pins the equivalence.
type mqueue struct {
	base    int64 // time of buckets[cursor]; the window is [base, base+mqWindow)
	cursor  int   // ring index of the bucket at time base
	minTime int64 // earliest queued time when minOK; otherwise a lower-bound scan hint
	minOK   bool
	n       int // items in the bucket window
	buckets []mbucket
	slots   []mitem // shared payload store
	free    []int32 // retired slot indices
	over    []mkey  // 4-ary min-heap of events beyond the window horizon
}

type mbucket struct {
	asks   []int32 // same-tick ask slots in push (= seq) order
	dones  []int32 // same-tick completion slots in push (= seq) order
	ai, di int     // drain positions
}

type mkey struct {
	at  int64
	ord uint64 // isDone<<62 | seq
	idx int32
}

const mqDoneBit = uint64(1) << 62

func keyLess(a, b mkey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// mqWindow is the bucket horizon. It comfortably covers task durations
// and management costs at any grain the experiments use; events farther
// out are rare (phase serial actions) and pay one overflow-heap hop.
const mqWindow = 256

func (h *mqueue) alloc(it mitem) int32 {
	if n := len(h.free); n > 0 {
		idx := h.free[n-1]
		h.free = h.free[:n-1]
		h.slots[idx] = it
		return idx
	}
	h.slots = append(h.slots, it)
	return int32(len(h.slots) - 1)
}

// init allocates the bucket ring for a machine of workers processors.
// Each worker has at most one task in flight and one live ask, so every
// bucket's lists start with room for one item per worker (capped, so a
// huge machine does not pay for ticks that never fill up). The lists
// are carved from two shared arrays: a run reaches its steady state
// without the hundreds of per-bucket doublings that otherwise scale
// with how long the run lasts.
func (h *mqueue) init(workers int) {
	c := min(workers, mqBucketCap)
	asks := make([]int32, mqWindow*c)
	dones := make([]int32, mqWindow*c)
	h.buckets = make([]mbucket, mqWindow)
	for i := range h.buckets {
		h.buckets[i].asks = asks[i*c : i*c : (i+1)*c]
		h.buckets[i].dones = dones[i*c : i*c : (i+1)*c]
	}
}

// mqBucketCap bounds init's per-bucket list capacity.
const mqBucketCap = 64

func (h *mqueue) push(it mitem) {
	if h.n == 0 && len(h.over) == 0 {
		// Empty queue: re-anchor the window at the new event.
		h.base = it.at
		h.cursor = 0
	}
	delta := it.at - h.base
	if delta < 0 {
		panic("sim: event pushed before the current virtual time")
	}
	idx := h.alloc(it)
	if delta < mqWindow {
		b := &h.buckets[(h.cursor+int(delta))&(mqWindow-1)]
		if it.isDone {
			b.dones = append(b.dones, idx)
		} else {
			b.asks = append(b.asks, idx)
		}
		h.n++
	} else {
		ord := uint64(it.seq)
		if it.isDone {
			ord |= mqDoneBit
		}
		h.overPush(mkey{at: it.at, ord: ord, idx: idx})
	}
	if h.minOK && it.at < h.minTime {
		h.minTime = it.at
	}
	// When !minOK, minTime is a lower-bound hint (all queued times are
	// >= it, and pushes land at >= base >= hint), so it stays valid as
	// the scan start.
}

// ensureMin locates the earliest queued time. Window items always beat
// the overflow (migration keeps every overflow time >= base+mqWindow),
// so the scan walks buckets from the hint forward and falls back to the
// overflow top only when the window is empty.
func (h *mqueue) ensureMin() {
	if h.minOK {
		return
	}
	if h.n > 0 {
		d := int(h.minTime - h.base)
		if d < 0 {
			d = 0
		}
		for ; ; d++ {
			b := &h.buckets[(h.cursor+d)&(mqWindow-1)]
			if b.ai < len(b.asks) || b.di < len(b.dones) {
				h.minTime = h.base + int64(d)
				h.minOK = true
				return
			}
		}
	}
	if len(h.over) > 0 {
		h.minTime = h.over[0].at
		h.minOK = true
	}
}

func (h *mqueue) pop() mitem {
	h.ensureMin()
	if h.n == 0 {
		// The earliest event lives in the overflow: jump the window.
		h.base = h.minTime
		h.cursor = 0
		h.migrate()
	} else if h.minTime > h.base {
		h.cursor = (h.cursor + int(h.minTime-h.base)) & (mqWindow - 1)
		h.base = h.minTime
		if len(h.over) > 0 {
			h.migrate()
		}
	}
	b := &h.buckets[h.cursor]
	var idx int32
	if b.ai < len(b.asks) {
		idx = b.asks[b.ai]
		b.ai++
	} else {
		idx = b.dones[b.di]
		b.di++
	}
	h.n--
	if b.ai == len(b.asks) && b.di == len(b.dones) {
		b.asks = b.asks[:0]
		b.dones = b.dones[:0]
		b.ai, b.di = 0, 0
		h.minOK = false // minTime remains the scan hint
	}
	h.free = append(h.free, idx)
	return h.slots[idx]
}

// migrate moves overflow events that the advanced window now covers into
// their buckets. It runs on every window advance, before any new pushes
// can land in those buckets, so migrated items keep their seq-order
// position in the per-tick lists.
func (h *mqueue) migrate() {
	for len(h.over) > 0 && h.over[0].at < h.base+mqWindow {
		k := h.overPop()
		b := &h.buckets[(h.cursor+int(k.at-h.base))&(mqWindow-1)]
		if k.ord >= mqDoneBit {
			b.dones = append(b.dones, k.idx)
		} else {
			b.asks = append(b.asks, k.idx)
		}
		h.n++
	}
}

func (h *mqueue) peekTime() (int64, bool) {
	if h.n == 0 && len(h.over) == 0 {
		return 0, false
	}
	h.ensureMin()
	return h.minTime, true
}

// askWouldPopFirst reports whether a fresh ask pushed now at time at
// would be the very next item popped: nothing queued orders before a new
// ask at at (an existing ask at the same time has a lower seq and wins;
// an existing completion at the same time loses — asks drain first).
// The completion path uses this to serve a worker's re-ask inline,
// skipping a queue round trip.
func (h *mqueue) askWouldPopFirst(at int64) bool {
	if h.n == 0 && len(h.over) == 0 {
		return true
	}
	h.ensureMin()
	if h.minTime != at {
		return h.minTime > at
	}
	if h.n > 0 {
		b := &h.buckets[(h.cursor+int(h.minTime-h.base))&(mqWindow-1)]
		return b.ai >= len(b.asks)
	}
	return h.over[0].ord >= mqDoneBit
}

// overPush/overPop maintain the overflow as a 4-ary min-heap of 20-byte
// keys ordered by keyLess; payloads stay in the shared slot array.
func (h *mqueue) overPush(k mkey) {
	s := append(h.over, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !keyLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	h.over = s
}

func (h *mqueue) overPop() mkey {
	s := h.over
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	h.over = s
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if keyLess(s[k], s[m]) {
				m = k
			}
		}
		if !keyLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// parkedSet tracks parked workers as a bitset so wake passes iterate
// only the set bits instead of scanning every worker: with a thousand
// busy workers and nobody parked, a wake is sixteen zero-word loads, not
// a thousand boolean tests. Iteration is in ascending worker order —
// the same order the old linear scan used, so wake fairness (and the
// golden schedules) are unchanged.
type parkedSet struct {
	words []uint64
}

func newParkedSet(n int) parkedSet {
	return parkedSet{words: make([]uint64, (n+63)/64)}
}

func (p *parkedSet) set(w int)   { p.words[w>>6] |= 1 << (w & 63) }
func (p *parkedSet) clear(w int) { p.words[w>>6] &^= 1 << (w & 63) }
