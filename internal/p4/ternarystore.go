package p4

import (
	"bytes"
	"sort"

	"p4guard/internal/match"
)

// Partitioned ternary store: one hash partition per distinct mask, as in
// tuple-space search, with the costs that grow with table size kept
// sublinear:
//
//   - partitions are ordered by their maximum entry priority and the
//     walk stops as soon as no remaining partition can outrank the best
//     hit so far, so high-priority matches touch a handful of
//     partitions instead of all of them;
//   - each partition indexes its masked values in an open-addressing
//     hash table whose slots pair the leaf pointer with the key's full
//     hash. A non-matching partition (the common case: a key matches a
//     handful of the partitions) costs one slot-array load and a tag
//     compare — no pointer chase — and successive partitions' probes
//     are independent loads the CPU overlaps, unlike a bitwise trie
//     whose O(log n) node hops are each a dependent cache miss. That
//     data-dependency difference is what keeps million-entry lookups
//     within a small constant factor of thousand-entry ones.
//
// A store is built once, from a generation's whole entry list, and only
// read after that: every mutation of a ternary table compiles a new one
// (Table.derive), which is what makes concurrent lookups on old
// generations safe without locks. Nothing deploys a ternary table; the
// store exists for the benchmark's ternary lookup probe, and what it
// keeps is what that probe measures — build and find.
//
// Tie-breaking is exact: the winner is the matching entry that beats
// all others under the table's canonical match order (priority, then
// canonical rank — see sortByPriority), which the linear-scan oracle
// reproduces by walking the sorted entry list first-match.

// tleaf holds every entry sharing one masked value, best-first under
// the canonical match order.
type tleaf struct {
	key []byte // the masked value (aliases a member row's value half)
	es  []*row
}

// tslot pairs a leaf with its key's full hash: probes compare tags
// before touching the leaf, so scanning a partition that does not hold
// the key reads only the slot array.
type tslot struct {
	tag  uint64
	leaf *tleaf // nil = never occupied (probe stop)
}

// Open-addressing load ceiling: a partition's slot array is sized so its
// leaves stay under tLoadNum/tLoadDen of capacity. Keeping the ceiling
// under 1 also guarantees every probe loop terminates.
const (
	tLoadNum = 7
	tLoadDen = 10
)

// thash is FNV-1a over the masked value; computed from bytes already in
// cache, it costs no memory traffic.
func thash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// slotsFor returns the smallest power-of-two capacity keeping n leaves
// under the load ceiling.
func slotsFor(n int) int {
	c := 8
	for c*tLoadNum < n*tLoadDen {
		c <<= 1
	}
	return c
}

// tpart is one mask partition: all ternary entries sharing a mask
// pattern, indexed by masked value. maxPrio is the highest member
// priority.
type tpart struct {
	mask    []byte
	maxPrio int32
	slots   []tslot
}

// lookup returns the leaf stored under masked, or nil. Termination:
// the load ceiling keeps at least one never-occupied slot in every
// published array.
func (p *tpart) lookup(masked []byte, h uint64) *tleaf {
	m := uint64(len(p.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := &p.slots[i]
		if s.leaf == nil {
			return nil
		}
		if s.tag == h && bytes.Equal(s.leaf.key, masked) {
			return s.leaf
		}
	}
}

// insert adds e while the store is being built. Entries arrive best-first,
// so a duplicate of a masked value appends behind the leaf's better
// members and the partition's first entry set its maxPrio; the slot array
// was sized for every entry of the mask, so a new leaf takes the first
// free slot on its probe path.
func (p *tpart) insert(e *row) {
	h := thash(e.lo())
	if lf := p.lookup(e.lo(), h); lf != nil {
		lf.es = append(lf.es, e)
		return
	}
	m := uint64(len(p.slots) - 1)
	i := h & m
	for p.slots[i].leaf != nil {
		i = (i + 1) & m
	}
	p.slots[i] = tslot{tag: h, leaf: &tleaf{key: e.lo(), es: []*row{e}}}
}

// ternaryStore is one generation's ternary index: its partitions,
// ordered by descending maxPrio.
type ternaryStore struct {
	parts []*tpart
}

// buildTernaryStore indexes entries (already in canonical match order)
// from scratch. A ternary row's key is value‖mask: lo() and hi().
func buildTernaryStore(entries []*row) *ternaryStore {
	ts := &ternaryStore{}
	byMask := make(map[string]*tpart)
	counts := make(map[string]int)
	for _, e := range entries {
		counts[string(e.hi())]++
	}
	for _, e := range entries {
		mk := string(e.hi())
		p := byMask[mk]
		if p == nil {
			p = &tpart{mask: e.hi(), maxPrio: e.Priority,
				slots: make([]tslot, slotsFor(counts[mk]))}
			byMask[mk] = p
			ts.parts = append(ts.parts, p)
		}
		p.insert(e)
	}
	ts.sortParts()
	return ts
}

func (ts *ternaryStore) sortParts() {
	sort.Slice(ts.parts, func(i, j int) bool {
		return ts.parts[i].maxPrio > ts.parts[j].maxPrio
	})
}

// tBatch is how many partitions find stages ahead: large enough to
// fill the CPU's outstanding-miss capacity, small enough to keep the
// scratch buffers on the stack.
const tBatch = 32

// find returns the best-matching entry for key, or nil. masked is
// caller scratch of key length. Exactness: the walk visits every
// partition whose maxPrio could still beat the best hit (the order is
// maxPrio-descending and the cut is strict), so any entry outranking
// the current best lives in a partition that is still visited.
//
// The walk is two-staged per batch of partitions: the first stage
// computes every partition's hash and loads its first probe slot with
// no data-dependent branches between iterations, so the slot loads —
// the only per-partition accesses that miss cache on large tables —
// issue concurrently instead of serializing one miss per partition.
// The second stage resolves each staged probe (now cached) and keeps
// the strict maxPrio early exit.
func (ts *ternaryStore) find(key, masked []byte) *row {
	if ts == nil {
		return nil
	}
	var (
		hit  *row
		hbuf [tBatch]uint64
		lbuf [tBatch]*tleaf
	)
	parts := ts.parts
	for base := 0; base < len(parts); base += tBatch {
		if hit != nil && parts[base].maxPrio < hit.Priority {
			break
		}
		n := len(parts) - base
		if n > tBatch {
			n = tBatch
		}
		for k := 0; k < n; k++ {
			p := parts[base+k]
			match.MaskBytes(masked, key, p.mask)
			h := thash(masked)
			hbuf[k] = h
			lbuf[k] = p.slots[h&uint64(len(p.slots)-1)].leaf
		}
		for k := 0; k < n; k++ {
			p := parts[base+k]
			if hit != nil && p.maxPrio < hit.Priority {
				return hit
			}
			if lbuf[k] == nil {
				continue
			}
			match.MaskBytes(masked, key, p.mask)
			if lf := p.lookup(masked, hbuf[k]); lf != nil {
				if e := lf.es[0]; beats(e, hit) {
					hit = e
				}
			}
		}
	}
	return hit
}
