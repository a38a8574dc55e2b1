package p4

import (
	"sync/atomic"
	"time"

	"p4guard/internal/match"
	"p4guard/internal/packet"
)

// Batched zero-copy forwarding. The per-packet Lookup path extracts one
// key, probes one index, and pays three atomic adds per hit; the batch
// path amortizes all of it over a burst:
//
//   - keys for the whole burst are gathered straight from the raw frame
//     bytes into a struct-of-arrays match.KeyBatch (no packet.Packet
//     header structs, no per-key allocations);
//   - a per-worker direct-mapped flow cache (the software-switch EMC
//     idiom) short-circuits repeated keys: a cached verdict is provably
//     identical to a fresh lookup because table lookup is a pure
//     function of (lookup state, key) and every cache entry is tagged
//     with the state generation that produced it;
//   - cache misses fall through to the index — the range index (point
//     hash + bitset) batched over the miss set, or the scalar probe
//     (lookupState.find) per key for a ternary table;
//   - direct counters are tallied per row and flushed as one pair of
//     atomic adds per distinct entry, plus one pair of table-level adds
//     per batch, instead of three atomic read-modify-writes per packet;
//   - digests are collected per batch and enqueued under one lock with
//     one clock read (queueDigestBatch), preserving the queue's
//     offered/queued/drained/dropped invariants exactly.
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
// recorded miss) tagged with the generation that produced it. Keys are
// held as two zero-padded little-endian words so a probe is two integer
// compares instead of a byte loop. row is the entry's row id in the
// state's byID (-1 on a ternary table, which has none); it rides along
// so cache hits can still use the batched counter tally.
type flowSlot struct {
	gen    uint32
	klen   uint8
	miss   bool
	row    int32
	k0, k1 uint64
	entry  *row
}

// flowCache is one table's direct-mapped exact-match cache inside a
// workspace. It is generation-tagged: whenever the table's lookup state
// pointer changes (insert, delete, program, reindex), gen is bumped and
// every cached slot goes stale at once — no per-slot invalidation, no
// coordination with writers. Holding the state pointer for the identity
// compare also pins it, so a recycled allocation can never alias a
// previous generation.
type flowCache struct {
	owner *Table
	state *lookupState
	gen   uint32
	slots []flowSlot
}

// sync points the cache at the table's current lookup state and reports
// whether the cache is usable for this batch.
func (c *flowCache) sync(t *Table, st *lookupState) bool {
	if st.width == 0 || st.width > flowKeyMax {
		return false
	}
	if c.owner != t || c.state != st {
		c.owner, c.state = t, st
		c.gen++
		if c.gen == 0 {
			// Generation counter wrapped: hard-clear so slots tagged with
			// a recycled generation number cannot read as fresh.
			for i := range c.slots {
				c.slots[i] = flowSlot{}
			}
			c.gen = 1
		}
		if c.slots == nil {
			c.slots = make([]flowSlot, flowCacheSlots)
		}
	}
	return true
}

// get probes the cache. ok distinguishes "no information" from a cached
// miss (ok=true, entry=nil).
func (c *flowCache) get(k0, k1 uint64, klen int) (entry *row, row int32, ok bool) {
	s := &c.slots[match.HashPacked(k0, k1)&(flowCacheSlots-1)]
	if s.gen != c.gen || int(s.klen) != klen || s.k0 != k0 || s.k1 != k1 {
		return nil, -1, false
	}
	if s.miss {
		return nil, -1, true
	}
	return s.entry, s.row, true
}

// put records a resolved key (entry nil = miss).
func (c *flowCache) put(k0, k1 uint64, klen int, entry *row, row int32) {
	s := &c.slots[match.HashPacked(k0, k1)&(flowCacheSlots-1)]
	s.gen = c.gen
	s.klen = uint8(klen)
	s.miss = entry == nil
	s.row = row
	s.k0, s.k1 = k0, k1
	s.entry = entry
}

// BatchWorkspace holds every per-burst buffer the batched pipeline
// needs: the SoA key batch, per-packet resolution arrays, the active-set
// scratch, the digest staging area, and one flow cache per pipeline
// table slot. A workspace belongs to one worker at a time (arenas hand
// them out); after warm-up, running batches through it allocates
// nothing.
type BatchWorkspace struct {
	keys    match.KeyBatch
	hits    []*row   // resolved entry per packet index (nil = miss)
	hitRows []int32  // row id in the state's byID per packet index (-1 = none)
	acts    []Action // resolved action per packet index
	matched []bool   // non-default entry fired, per packet index
	act     []int32  // packets still running, filtered per table
	pend    []int32  // cache-missed packets needing an index probe
	rows    []int32  // range-index rows parallel to pend
	digests []Digest // staged digests, flushed once per batch
	caches  []flowCache
	masked  []byte // lane-masking scratch for ternary probes, one key wide

	// Per-row counter accumulation: deltas gather here (indexed by the
	// state's row id) and flush as one atomic add pair per
	// distinct entry per batch. touched lists the dirty rows so the
	// flush never scans or clears the whole table.
	aggHits  []uint64
	aggBytes []uint64
	touched  []int32
}

// ensure sizes the per-packet arrays for n packets and t table slots.
func (ws *BatchWorkspace) ensure(n, t int) {
	if cap(ws.hits) < n {
		ws.hits = make([]*row, n)
		ws.hitRows = make([]int32, n)
		ws.acts = make([]Action, n)
		ws.matched = make([]bool, n)
	}
	ws.hits = ws.hits[:n]
	ws.hitRows = ws.hitRows[:n]
	ws.acts = ws.acts[:n]
	ws.matched = ws.matched[:n]
	if cap(ws.act) < n {
		ws.act = make([]int32, n)
		ws.pend = make([]int32, n)
		ws.rows = make([]int32, n)
		ws.touched = make([]int32, 0, n)
	}
	if len(ws.caches) < t {
		ws.caches = append(ws.caches, make([]flowCache, t-len(ws.caches))...)
	}
}

// ensureAgg sizes the per-row accumulators for a state with ne row ids.
// The buffers stay zeroed between batches (the flush clears only the
// rows it touched).
func (ws *BatchWorkspace) ensureAgg(ne int) {
	if cap(ws.aggHits) < ne {
		ws.aggHits = make([]uint64, ne)
		ws.aggBytes = make([]uint64, ne)
	}
	ws.aggHits = ws.aggHits[:cap(ws.aggHits)]
	ws.aggBytes = ws.aggBytes[:cap(ws.aggBytes)]
}

// LookupBatch resolves the table for every packet index in active,
// writing the action into ws.acts[idx], the matched flag into
// ws.matched[idx], and the hit entry (for counter tallying) into
// ws.hits[idx]. Counter effects are identical to calling Lookup once per
// packet: per-entry hits/bytes and table hits/misses advance by exactly
// the same amounts, just batched into one atomic add pair per distinct
// row and one pair per table. slot selects the workspace flow cache
// (the caller's pipeline position of t). The lookup state is loaded once
// for the whole burst, so a batch observes one table generation.
func (t *Table) LookupBatch(pkts []*packet.Packet, active []int32, ws *BatchWorkspace, slot int) {
	if len(active) == 0 {
		return
	}
	ws.ensure(len(pkts), slot+1)
	st := t.state.Load()
	width := st.width
	ws.keys.Reset(width, len(pkts))

	cache := &ws.caches[slot]
	cached := cache.sync(t, st)

	// Gather keys for the active set straight from the frames, then
	// resolve each key from the flow cache or collect it for the index.
	pend := ws.pend[:0]
	for _, idx := range active {
		key := ws.keys.Key(int(idx))
		fillKey(key, pkts[idx].Bytes, st.key)
		if cached {
			k0, k1 := match.PackKey(key)
			if e, row, ok := cache.get(k0, k1, width); ok {
				ws.hits[idx] = e
				ws.hitRows[idx] = row
				continue
			}
		}
		pend = append(pend, idx)
	}

	if len(pend) > 0 {
		switch st.kind {
		case MatchRange:
			rows := ws.rows[:len(pend)]
			st.rangeIdx.FindBatchIdx(&ws.keys, pend, rows)
			for j, idx := range pend {
				if rows[j] >= 0 {
					ws.hits[idx] = st.byID[rows[j]]
				} else {
					ws.hits[idx] = nil
				}
				ws.hitRows[idx] = rows[j]
			}
		default:
			if len(ws.masked) < width {
				ws.masked = make([]byte, width)
			}
			for _, idx := range pend {
				ws.hits[idx], ws.hitRows[idx] = st.find(ws.keys.Key(int(idx)), ws.masked)
			}
		}
		if cached {
			for _, idx := range pend {
				k0, k1 := match.PackKey(ws.keys.Key(int(idx)))
				cache.put(k0, k1, width, ws.hits[idx], ws.hitRows[idx])
			}
		}
	}

	// Tally counters per batch. Hits that carry a row id accumulate
	// into the workspace and flush as one atomic add pair per distinct
	// entry; a ternary hit has none and adds to its entry directly.
	// Table-level hit/miss counters advance once per batch. The final
	// counter values are identical to per-packet Lookup in every case.
	ws.ensureAgg(len(st.byID))
	touched := ws.touched[:0]
	var nHits, nMiss uint64
	for _, idx := range active {
		e := ws.hits[idx]
		if e == nil {
			nMiss++
			ws.acts[idx] = st.def
			ws.matched[idx] = false
			continue
		}
		nHits++
		ws.acts[idx] = e.Action
		ws.matched[idx] = true
		if row := ws.hitRows[idx]; row >= 0 {
			if ws.aggHits[row] == 0 {
				touched = append(touched, row)
			}
			ws.aggHits[row]++
			ws.aggBytes[row] += uint64(len(pkts[idx].Bytes))
			continue
		}
		atomic.AddUint64(&e.hits, 1)
		atomic.AddUint64(&e.bytes, uint64(len(pkts[idx].Bytes)))
	}
	for _, row := range touched {
		e := st.byID[row]
		atomic.AddUint64(&e.hits, ws.aggHits[row])
		atomic.AddUint64(&e.bytes, ws.aggBytes[row])
		ws.aggHits[row], ws.aggBytes[row] = 0, 0
	}
	ws.touched = touched[:0]
	if nHits > 0 {
		atomic.AddUint64(&t.hits, nHits)
	}
	if nMiss > 0 {
		atomic.AddUint64(&t.misses, nMiss)
	}
}

// RunTablesBatch applies a table snapshot to a burst: for each packet
// index in active, the verdict lands in out[idx]. Per-packet action
// semantics are exactly RunTables'; the differences are batch-granular
// only — each table's lookup state is read once per burst, and digests
// are staged in the workspace and enqueued under one lock with one
// shared timestamp after the last table (so with several digesting
// tables the queue interleaving is table-major rather than packet-major;
// counts and flags are identical either way).
func (p *Pipeline) RunTablesBatch(tables []*Table, pkts []*packet.Packet, active []int32, ws *BatchWorkspace, out []Verdict) {
	ws.ensure(len(pkts), len(tables))
	for _, idx := range active {
		out[idx] = Verdict{Allowed: true}
	}
	run := ws.act[:0]
	run = append(run, active...)
	ws.digests = ws.digests[:0]
	for slot, t := range tables {
		if len(run) == 0 {
			break
		}
		t.LookupBatch(pkts, run, ws, slot)
		live := run[:0]
		for _, idx := range run {
			v := &out[idx]
			v.Matched = v.Matched || ws.matched[idx]
			act := ws.acts[idx]
			switch act.Type {
			case ActionAllow:
				v.Allowed = true
				v.Class = act.Class
			case ActionDrop:
				v.Allowed = false
				v.Class = act.Class
			case ActionDigest:
				ws.digests = append(ws.digests, Digest{Table: t.Name, Pkt: pkts[idx]})
				v.Digested = true
				live = append(live, idx)
			case ActionSetClass:
				v.Class = act.Class
				live = append(live, idx)
			case ActionNop:
				live = append(live, idx)
			}
		}
		run = live
	}
	if len(ws.digests) > 0 {
		p.queueDigestBatch(ws.digests)
		// Drop the packet references so a pooled workspace does not pin
		// frames from old bursts.
		for i := range ws.digests {
			ws.digests[i] = Digest{}
		}
		ws.digests = ws.digests[:0]
	}
}

// queueDigestBatch enqueues a burst of digests under one lock with one
// clock read, with per-digest accounting identical to queueDigest:
// offered counts every digest, overflow increments dropped, acceptance
// increments queued.
func (p *Pipeline) queueDigestBatch(ds []Digest) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range ds {
		p.offered++
		if len(p.digests) >= p.maxQ {
			p.dropped++
			continue
		}
		d := ds[i]
		d.At = now
		p.queued++
		p.digests = append(p.digests, d)
	}
}
