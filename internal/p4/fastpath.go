package p4

import (
	"sync/atomic"
	"time"

	"p4guard/internal/match"
	"p4guard/internal/packet"
)

// Batched zero-copy forwarding. Pipeline.ProcessBatch visits each active
// packet of a burst once, and for a flow the cache holds that one visit is
// the whole lookup:
//
//   - the key is gathered straight from the raw frame bytes (no
//     packet.Packet header structs, no per-key allocations) into a
//     struct-of-arrays match.KeyBatch, and a key of at most 8 bytes is
//     packed into the flow cache's word in the same step; a frame shorter
//     than the layout's farthest offset takes fillKey and PackKey instead;
//   - a per-worker direct-mapped flow cache (the software-switch EMC idiom)
//     is probed: a cached verdict is provably identical to a fresh lookup
//     because table lookup is a pure function of (lookup state, key) and
//     every slot is tagged with the generation of the state that filled it;
//   - on a hit the packet is settled where it stands: its verdict lands in
//     out, the allowed and digested counts advance without a branch, and
//     the row's counters are tallied in the workspace.
//
// Packets the cache misses are resolved after the pass — the range index
// batched over them (FindBatchIdx), or the scalar probe (lookupState.find)
// per key on a ternary table — and settled by the same helper. Direct
// counters flush as one pair of atomic adds per distinct row, and one pair
// per table, a burst. Digested packets' keys are staged in packet order (a
// merge of the two paths' lists, each in order already) and enqueued under
// one lock with one clock read (queueKeys), with the queue's accounting
// exactly as a Process per packet leaves it.
//
// Everything lives in a caller-owned BatchWorkspace, so the steady-state
// loop allocates nothing.

// flowKeyMax is the widest key the flow cache holds. Learned detector
// layouts are ≤ 8 bytes; wider keys skip the cache and always take the
// index path.
const flowKeyMax = match.PackedKeyMax

// flowCacheSlots is the direct-mapped cache size (power of two).
const flowCacheSlots = 1024

// flowSlot caches one resolved key: the entry that matched (nil for a
// recorded miss) tagged with the generation that produced it, 32 bytes.
// Keys are held as two zero-padded little-endian words so a probe is two
// integer compares instead of a byte loop; the key width needs no tag, as
// it is fixed within a generation. row is the entry's row id in the
// state's byID (-1 on a miss or a ternary table, which has none); it rides
// along so cache hits can still use the batched counter tally.
type flowSlot struct {
	gen    uint32
	row    int32
	k0, k1 uint64
	entry  *row
}

// flowCache is a workspace's direct-mapped exact-match cache. It is
// generation-tagged: whenever the lookup state pointer changes (insert,
// delete, program, reindex, or another table's burst), gen is bumped and
// every cached slot goes stale at once — no per-slot invalidation, no
// coordination with writers. Holding the state pointer for the identity
// compare also pins it, so a recycled allocation can never alias a
// previous generation. It is the state the workspace's last burst read,
// cacheable or not, and ExplainBurst explains against it.
type flowCache struct {
	state *lookupState
	gen   uint32
	slots []flowSlot
}

// sync points the cache at the table's current lookup state and reports
// whether the cache is usable for this batch.
func (c *flowCache) sync(st *lookupState) bool {
	if c.state != st {
		c.state = st
		c.gen++
		if c.gen == 0 {
			// Generation counter wrapped: hard-clear so slots tagged with
			// a recycled generation number cannot read as fresh.
			for i := range c.slots {
				c.slots[i] = flowSlot{}
			}
			c.gen = 1
		}
	}
	if st.width == 0 || st.width > flowKeyMax {
		return false
	}
	if c.slots == nil {
		c.slots = make([]flowSlot, flowCacheSlots)
	}
	return true
}

// get probes the cache. ok distinguishes "no information" from a cached
// miss (ok=true, entry=nil).
func (c *flowCache) get(k0, k1 uint64) (entry *row, row int32, ok bool) {
	s := &c.slots[match.HashPacked(k0, k1)&(flowCacheSlots-1)]
	if s.gen != c.gen || s.k0 != k0 || s.k1 != k1 {
		return nil, -1, false
	}
	return s.entry, s.row, true
}

// put records a resolved key (entry nil = miss).
func (c *flowCache) put(k0, k1 uint64, entry *row, row int32) {
	c.slots[match.HashPacked(k0, k1)&(flowCacheSlots-1)] = flowSlot{gen: c.gen, row: row, k0: k0, k1: k1, entry: entry}
}

// BatchWorkspace holds every per-burst buffer the batched pipeline
// needs: the SoA key batch, the cache-missed set and its rows, the
// digested set and its staged keys, and the flow cache. A workspace
// belongs to one worker at a time (arenas hand them out); after warm-up,
// running batches through it allocates nothing.
type BatchWorkspace struct {
	keys    match.KeyBatch
	pend    []int32 // cache-missed packets needing an index probe
	rows    []int32 // row ids parallel to pend
	dig     []int32 // digested packets: the hit pass's, then the index pass's
	digests []byte  // staged digest keys, flushed once per batch
	cache   flowCache
	masked  []byte // lane-masking scratch for ternary probes, one key wide

	// Per-row counter accumulation: deltas gather here (indexed by the
	// state's row id) and flush as one atomic add pair per distinct entry
	// per batch. touched lists the dirty rows so the flush never scans or
	// clears the whole table.
	agg     []rowTally
	touched []int32
}

// rowTally is one row's counter deltas within a burst.
type rowTally struct{ hits, bytes uint64 }

// ensure sizes the per-packet arrays for n packets and the per-row
// accumulators for a state with ne row ids. The accumulators stay zeroed
// between batches (the flush clears only the rows it touched).
func (ws *BatchWorkspace) ensure(n, ne int) {
	if len(ws.pend) < n {
		ws.pend = make([]int32, n)
		ws.rows = make([]int32, n)
		ws.dig = make([]int32, n)
		ws.touched = make([]int32, 0, n)
	}
	if len(ws.agg) < ne {
		ws.agg = make([]rowTally, ne)
	}
}

// burst is one ProcessBatch call's running state.
type burst struct {
	ws      *BatchWorkspace
	out     []Verdict
	def     Verdict // the default action's verdict
	nd      int     // ws.dig[:nd] are the digested packets so far
	allowed int
	misses  int
}

// settle finishes packet idx, whose key resolved to e at row id r (e nil:
// the table's default action): its verdict goes to out, the packet is
// counted, and e's counters are tallied. The cache-hit pass and the index
// pass both end here.
func (b *burst) settle(idx int32, e *row, r int32, size int) {
	v := b.def
	if e == nil {
		b.misses++
	} else {
		v = verdictOf(e.Action, true)
		b.ws.tally(e, r, size)
	}
	b.out[idx] = v
	b.allowed += b2i(v.Allowed)
	b.ws.dig[b.nd] = idx
	b.nd += b2i(v.Digested)
}

// tally adds one packet of size bytes to e's counters: into the
// workspace when the row has an id, straight to the entry on a ternary
// table, whose rows have none.
func (ws *BatchWorkspace) tally(e *row, r int32, size int) {
	if r < 0 {
		atomic.AddUint64(&e.hits, 1)
		atomic.AddUint64(&e.bytes, uint64(size))
		return
	}
	c := &ws.agg[r]
	if c.hits == 0 {
		ws.touched = append(ws.touched, r)
	}
	c.hits++
	c.bytes += uint64(size)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// ProcessBatch runs a burst through the table: for each packet index in
// active (ascending), the verdict lands in out[idx]. It returns how many of
// them were allowed and how many digested. Per-packet semantics, counters
// included, are exactly Process's; the differences are batch-granular only
// — the table's lookup state is read once per burst, so a burst observes
// one generation, counters advance by one atomic add pair per distinct row
// and per table, and the misses' keys are staged in the workspace and
// enqueued under one lock with one shared timestamp.
func (p *Pipeline) ProcessBatch(pkts []*packet.Packet, active []int32, ws *BatchWorkspace, out []Verdict) (allowed, digested int) {
	if len(active) == 0 {
		return 0, 0
	}
	t := p.table
	st := t.state.Load()
	w := st.width
	ws.keys.Reset(w, len(pkts))
	ws.ensure(len(pkts), len(st.byID))
	cache := &ws.cache
	cached := cache.sync(st)
	direct := cached && w <= 8
	b := burst{ws: ws, out: out, def: verdictOf(st.def, false)}

	// The one pass: gather each key, probe the cache, settle the hits and
	// collect the rest for the index.
	pend := ws.pend[:0]
	for _, idx := range active {
		f := pkts[idx].Bytes
		key := ws.keys.Key(int(idx))
		var k0, k1 uint64
		if direct && len(f) >= st.reach {
			for j, off := range st.offs {
				key[j] = f[off]
				k0 |= uint64(f[off]) << (8 * j)
			}
		} else {
			fillKey(key, f, st.key)
			if cached {
				k0, k1 = match.PackKey(key)
			}
		}
		if cached {
			if e, r, ok := cache.get(k0, k1); ok {
				b.settle(idx, e, r, len(f))
				continue
			}
		}
		pend = append(pend, idx)
	}

	hitDigests := b.nd
	if len(pend) > 0 {
		rows := ws.rows[:len(pend)]
		if st.kind == MatchRange {
			st.rangeIdx.FindBatchIdx(&ws.keys, pend, rows)
		} else if len(ws.masked) < w {
			ws.masked = make([]byte, w)
		}
		for j, idx := range pend {
			key := ws.keys.Key(int(idx))
			var e *row
			r := rows[j]
			if st.kind != MatchRange {
				e, r = st.find(key, ws.masked)
			} else if r >= 0 {
				e = st.byID[r]
			}
			if cached {
				k0, k1 := match.PackKey(key)
				cache.put(k0, k1, e, r)
			}
			b.settle(idx, e, r, len(pkts[idx].Bytes))
		}
	}

	for _, r := range ws.touched {
		e, c := st.byID[r], &ws.agg[r]
		atomic.AddUint64(&e.hits, c.hits)
		atomic.AddUint64(&e.bytes, c.bytes)
		*c = rowTally{}
	}
	ws.touched = ws.touched[:0]
	if hits := len(active) - b.misses; hits > 0 {
		atomic.AddUint64(&t.hits, uint64(hits))
	}
	if b.misses > 0 {
		atomic.AddUint64(&t.misses, uint64(b.misses))
	}
	if b.nd > 0 {
		staged := ws.stage(ws.dig[:hitDigests], ws.dig[hitDigests:b.nd])
		p.queueKeys(st.key, staged, b.nd, time.Now())
	}
	return b.allowed, b.nd
}

// stage copies the digested packets' keys into the staging buffer in
// packet order: a (the hit pass's) and b (the index pass's) are each in
// packet order, so one merge of the two is.
func (ws *BatchWorkspace) stage(a, b []int32) []byte {
	staged := ws.digests[:0]
	for len(a)+len(b) > 0 {
		var idx int32
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			idx, a = a[0], a[1:]
		} else {
			idx, b = b[0], b[1:]
		}
		staged = append(staged, ws.keys.Key(int(idx))...)
	}
	ws.digests = staged
	return staged
}
