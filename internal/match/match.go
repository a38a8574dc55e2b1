// Package match is the unified classification engine: it compiles
// priority-ordered range rules into an immutable, allocation-free bitset
// index shared by every consumer of match semantics — the offline rule
// set (rules.RuleSet), the behavioural data plane (p4.Table range
// lookup), and the controller's deployment mirror. Compiling once and
// routing every path through the same index guarantees the offline
// model, the simulated switch, and the controller make the same decision
// for every packet.
//
// The index has two halves, split by row shape. Range rows go into a
// per-key-byte interval table: for each key byte position there are 256
// bitmasks, one per byte value, whose bit r is set when range row r
// admits that value at that position. Classification ANDs one mask per
// position and picks the lowest set bit — rows are stored in priority
// order, so the lowest bit is the winner. Point rows (Lo == Hi on every
// byte: what the controller's reactive installs are) go into an
// open-addressing hash on the packed key instead, so thousands of them
// cost one probe rather than thousands of bitset columns — and one more
// or fewer of them is an edit of the hash (KeyIndex.Edit), not a compile.
// Lookup cost is O(1) for the
// hash plus O(width × range rows/64) for the bitset, with no branching on
// rules and no allocation.
package match

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"p4guard/internal/packet"
	"p4guard/internal/rules"
)

// stackKeyBytes is the widest key classified without heap allocation.
// packet.HeaderWindow bounds every learned layout, so the spill path is
// effectively unreachable for compiled pipelines.
const stackKeyBytes = 64

// RangeRow is one row as KeyIndex.Edit takes it: key byte i must lie in
// [Lo[i], Hi[i]] inclusive. CompileRanges takes its rows packed instead.
type RangeRow struct {
	Lo, Hi []byte
}

// KeyIndex is a first-match-wins index over fixed-width byte keys. Every
// row has a stable id: its position in the priority-ordered list
// CompileRanges was given, and for a row Edit added, the next id never
// handed out. Find returns the id of the first matching row in priority
// order. A *KeyIndex never changes what it answers and is safe for
// concurrent use; a nil *KeyIndex is the empty index.
//
// The first matching row is the point row on the key (the hash keeps the
// first per key) or the first matching range row (the lowest set bit),
// because every row is one or the other. Which of the two comes first is
// the point's above: the number of range rows ahead of it. Nothing in
// the index is a row position, so a row that joins renumbers no other.
type KeyIndex struct {
	width  int
	nRows  int
	nWords int
	// rowMask has a bit set for every valid range row, per word; it
	// seeds the AND chain so trailing bits of the last word never
	// produce a phantom row.
	rowMask []uint64
	// table is indexed as ((pos*256)+byteValue)*nWords + word.
	table []uint64
	// rangeID maps bitset bit j to its row id; nil when the index was
	// compiled with no point row, and then bit j is row j. nRange is the
	// number of bits.
	rangeID []int32
	nRange  int
	// pointHash holds the point rows; its arrays are nil when no row is a
	// point. They are shared with the generations Edit derives from this
	// one by adding rows, which fill slots this one reads as empty (see
	// findPoint). nPoints counts the slots this generation reads as filled.
	pointHash
	nPoints int
	// shadowed lists the packed keys of the point rows compiled behind
	// another row on their key, which the hash does not hold.
	shadowed [][2]uint64
}

// pointHash is open addressing with linear probing, at most half full.
// Slot i's second key word is hi[i], kept beside the slots only for keys
// wider than 8 bytes: for narrower ones it is 0 on every key and hi is nil.
type pointHash struct {
	slots []ptSlot
	hi    []uint64
}

// ptSlot is one hash slot: the packed key's first word, the number of
// range rows ahead of the point, and its row id + 1 (0 marks an empty
// slot). Once a reader can have the array a slot is written once, by
// fill, and never again.
type ptSlot struct {
	k0    uint64
	id1   atomic.Uint32
	above uint32
}

// newPointHash sizes an empty hash for n points of width-byte keys: a
// power of two, at most half full.
func newPointHash(n, width int) pointHash {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	h := pointHash{slots: make([]ptSlot, size)}
	if width > 8 {
		h.hi = make([]uint64, size)
	}
	return h
}

// holds reports whether slot i, filled, holds the key.
func (h pointHash) holds(i uint32, k0, k1 uint64) bool {
	return h.slots[i].k0 == k0 && (h.hi == nil || h.hi[i] == k1)
}

// key returns slot i's packed key.
func (h pointHash) key(i uint32) (k0, k1 uint64) {
	if h.hi != nil {
		k1 = h.hi[i]
	}
	return h.slots[i].k0, k1
}

// fill writes empty slot i: the id last, so that whoever loads it finds
// the rest written.
func (h pointHash) fill(i uint32, k0, k1 uint64, id1, above uint32) {
	s := &h.slots[i]
	s.k0, s.above = k0, above
	if h.hi != nil {
		h.hi[i] = k1
	}
	s.id1.Store(id1)
}

// PackedKeyMax is the widest key PackKey holds. Point rows of wider keys
// (learned layouts are ≤ 8 bytes) stay in the bitset.
const PackedKeyMax = 16

// PackKey packs a key (len ≤ PackedKeyMax) into two zero-padded
// little-endian words. Written as two shift loops (no scratch buffer,
// no copy) so it stays within the inlining budget.
func PackKey(key []byte) (k0, k1 uint64) {
	for i := len(key) - 1; i >= 8; i-- {
		k1 = k1<<8 | uint64(key[i])
	}
	n := len(key)
	if n > 8 {
		n = 8
	}
	for i := n - 1; i >= 0; i-- {
		k0 = k0<<8 | uint64(key[i])
	}
	return k0, k1
}

// HashPacked mixes packed key words into 24 hash bits (Fibonacci-style
// multiply hashing; the high bits carry the mixing).
func HashPacked(k0, k1 uint64) uint32 {
	return uint32((k0*0x9e3779b97f4a7c15 ^ k1*0xc2b2ae3d27d4eb4f) >> 40)
}

// isPoint reports a row the hash can hold: one key of packable width.
func isPoint(width int, lo, hi []byte) bool {
	return width > 0 && width <= PackedKeyMax && bytes.Equal(lo, hi)
}

// probe returns the slot holding the key, or the empty slot where it
// belongs. It is the writer's walk: it reads every filled slot, whatever
// generation filled it, so only the goroutine that fills slots calls it.
func (h pointHash) probe(k0, k1 uint64) uint32 {
	mask := uint32(len(h.slots) - 1)
	for i := HashPacked(k0, k1) & mask; ; i = (i + 1) & mask {
		if h.slots[i].id1.Load() == 0 || h.holds(i, k0, k1) {
			return i
		}
	}
}

// findPoint returns the point row on the key and its above, or -1.
//
// A slot whose id is not below this generation's row count was filled by
// a later one and reads as empty, which is what it was when this
// generation was derived: ids are handed out in the order slots are
// filled, so the slots this generation reads as filled are exactly those
// filled before it, and its probe chains end where they ended then.
func (ix *KeyIndex) findPoint(key []byte) (id int32, above uint32) {
	k0, k1 := PackKey(key)
	h, n := ix.pointHash, uint32(ix.nRows)
	mask := uint32(len(h.slots) - 1)
	for i := HashPacked(k0, k1) & mask; ; i = (i + 1) & mask {
		id1 := h.slots[i].id1.Load()
		if id1-1 >= n { // empty (0 wraps), or filled after this generation
			return -1, 0
		}
		if h.holds(i, k0, k1) {
			return int32(id1 - 1), h.slots[i].above
		}
	}
}

// CompileRanges builds a KeyIndex over n width-byte keyed rows in
// priority (first-match-wins) order; row i has id i. The rows are packed,
// as rules.RuleSet.RangeKeys lays them out: row i's bounds lo‖hi at
// keys[2·width·i : 2·width·(i+1)]. The count is explicit because a row of
// a zero-width key has no bytes.
func CompileRanges(width, n int, keys []byte) (*KeyIndex, error) {
	if width < 0 || n < 0 {
		return nil, fmt.Errorf("match: negative key width %d or row count %d", width, n)
	}
	if len(keys) != 2*width*n {
		return nil, fmt.Errorf("match: %d key bytes are not %d rows of lo‖hi %d bytes wide", len(keys), n, width)
	}
	stride := 2 * width
	// One bit a row: whether it is a point, decided once (a learned table's
	// few rows fit the stack). The hash and the bitset are sized from the
	// counts before any row is placed.
	var few [4]uint64
	point := few[:]
	if words := (n + 63) / 64; words > len(few) {
		point = make([]uint64, words)
	}
	nPoints := 0
	for r := range n {
		if key := keys[stride*r:][:stride]; isPoint(width, key[:width], key[width:]) {
			point[r/64] |= 1 << (r % 64)
			nPoints++
		}
	}
	nRange := n - nPoints
	nWords := (nRange + 63) / 64
	ix := &KeyIndex{
		width:   width,
		nRows:   n,
		nWords:  nWords,
		rowMask: make([]uint64, nWords),
		table:   make([]uint64, width*256*nWords),
		nRange:  nRange,
	}
	if nPoints > 0 {
		ix.pointHash = newPointHash(nPoints, width)
		ix.rangeID = make([]int32, 0, nRange)
	}
	for i := range n {
		key := keys[stride*i:][:stride]
		lo, hi := key[:width], key[width:]
		if point[i/64]>>(i%64)&1 != 0 {
			// The first row on a key owns it: a later one never matches first.
			k0, k1 := PackKey(lo)
			if s := ix.probe(k0, k1); ix.slots[s].id1.Load() == 0 {
				ix.fill(s, k0, k1, uint32(i)+1, uint32(len(ix.rangeID)))
				ix.nPoints++
			} else {
				ix.shadowed = append(ix.shadowed, [2]uint64{k0, k1})
			}
			continue
		}
		r := i // bitset bit: the row's rank among range rows
		if nPoints > 0 {
			r = len(ix.rangeID)
			ix.rangeID = append(ix.rangeID, int32(i))
		}
		if !rules.DeadRow(key) {
			ix.admit(r, lo, hi)
		}
	}
	return ix, nil
}

// admit sets bit r of the interval table under every value the row admits
// at every key position. It is most of what compiling a table of a few
// wide ranges costs, and a function of its own so that the loop is
// compiled the same whatever CompileRanges holds live around the call.
func (ix *KeyIndex) admit(r int, lo, hi []byte) {
	word, bit := r/64, uint64(1)<<(r%64)
	ix.rowMask[word] |= bit
	nWords := ix.nWords // a store into the table could be one into ix, for all the compiler knows
	for pos := 0; pos < ix.width; pos++ {
		col := ix.table[pos*256*nWords+word:]
		for v, hi := int(lo[pos]), int(hi[pos]); v <= hi; v++ {
			col[v*nWords] |= bit
		}
	}
}

// RangeRows returns the number of range rows (bitset bits); bit order is
// their priority order.
func (ix *KeyIndex) RangeRows() int {
	if ix == nil {
		return 0
	}
	return ix.nRange
}

// RangeID returns the row id of range row j, 0 ≤ j < RangeRows().
func (ix *KeyIndex) RangeID(j int) int {
	if ix.rangeID == nil {
		return j
	}
	return int(ix.rangeID[j])
}

// Find returns the id of the first row matching the key in priority
// order. ok is false on miss or when the key width is wrong.
func (ix *KeyIndex) Find(key []byte) (row int, ok bool) {
	if ix == nil || len(key) != ix.width {
		return -1, false
	}
	r := ix.find(key)
	return int(r), r >= 0
}

// find is Find for a key of the index's width, -1 on miss.
func (ix *KeyIndex) find(key []byte) int32 {
	if ix.slots == nil {
		return ix.findRange(key) // no point row: bit r is row r
	}
	pt, above := ix.findPoint(key)
	if pt >= 0 && above == 0 {
		return pt
	}
	r := ix.findRange(key)
	if pt >= 0 && (r < 0 || uint32(r) >= above) {
		return pt
	}
	if r >= 0 && ix.rangeID != nil {
		r = ix.rangeID[r]
	}
	return r
}

// findRange returns the lowest set bit of the key's bitset AND, or -1.
func (ix *KeyIndex) findRange(key []byte) int32 {
	nW := ix.nWords
	for w := 0; w < nW; w++ {
		acc := ix.rowMask[w]
		for pos := 0; pos < ix.width && acc != 0; pos++ {
			acc &= ix.table[((pos*256)+int(key[pos]))*nW+w]
		}
		if acc != 0 {
			return int32(w*64 + bits.TrailingZeros64(acc))
		}
	}
	return -1
}

// Edit derives the index without the point rows on the keys of del and
// with the point rows add, which take the ids Rows(), Rows()+1, … in the
// order given; add[i] ranks behind the first above[i] range rows and ahead
// of the rest. A row's id is gone with the row: ids are not reused.
//
// An edit that only adds fills empty slots of the hash the index shares
// with its predecessors (none of them reads those: see findPoint) and
// copies nothing but the KeyIndex itself. Slots are written once, so an
// edit that deletes works on a copy of the hash, where it closes each
// vacated slot by shifting its probe chain back: the derived hash holds
// no deleted marker and probes as a compile of the same rows would. Either
// kind moves to a hash of twice the size rather than pass half full.
//
// It returns nil when the rows have to be compiled — a range row or an
// unpackable width on either side, an added key some row of the hash
// holds, a deleted key none does or one that has a second row shadowed
// behind the first (deleting either changes which the hash must hold) —
// or ix is the empty index. Generations form a chain: Edit may be called
// once on an index, and by one goroutine at a time along the chain; after
// a nil the chain ends.
func (ix *KeyIndex) Edit(del, add []RangeRow, above []int) *KeyIndex {
	if ix == nil || len(del) > ix.nPoints {
		return nil
	}
	for _, rows := range [2][]RangeRow{del, add} {
		for _, row := range rows {
			if len(row.Lo) != ix.width || len(row.Hi) != ix.width || !isPoint(ix.width, row.Lo, row.Hi) {
				return nil
			}
		}
	}
	next := *ix
	switch n := ix.nPoints - len(del) + len(add); {
	case 2*n > len(ix.slots):
		next.pointHash = newPointHash(n, ix.width)
		for i := range uint32(len(ix.slots)) {
			if id1 := ix.slots[i].id1.Load(); id1-1 < uint32(ix.nRows) { // 0 wraps
				k0, k1 := ix.key(i)
				next.fill(next.probe(k0, k1), k0, k1, id1, ix.slots[i].above)
			}
		}
	case len(del) > 0:
		next.pointHash = pointHash{append([]ptSlot(nil), ix.slots...), slices.Clone(ix.hi)}
	}
	for _, row := range del {
		k0, k1 := PackKey(row.Lo)
		if slices.Contains(ix.shadowed, [2]uint64{k0, k1}) || !next.unfill(k0, k1) {
			return nil
		}
	}
	next.nPoints -= len(del)
	for i, row := range add {
		k0, k1 := PackKey(row.Lo)
		s := next.probe(k0, k1)
		if next.slots[s].id1.Load() != 0 {
			return nil
		}
		next.fill(s, k0, k1, uint32(next.nRows)+1, uint32(above[i]))
		next.nRows++
		next.nPoints++
	}
	return &next
}

// unfill empties the slot holding the key, in a hash no reader has yet,
// and closes the hole: each later slot of the run that its own probe
// reaches only through the hole moves back into it. It reports whether
// the key was there.
func (h pointHash) unfill(k0, k1 uint64) bool {
	mask := uint32(len(h.slots) - 1)
	hole := HashPacked(k0, k1) & mask
	for ; ; hole = (hole + 1) & mask {
		if h.slots[hole].id1.Load() == 0 {
			return false
		}
		if h.holds(hole, k0, k1) {
			break
		}
	}
	for i := (hole + 1) & mask; ; i = (i + 1) & mask {
		id1 := h.slots[i].id1.Load()
		if id1 == 0 {
			break
		}
		// Slot i stays where it is when its home lies behind the hole, (hole, i].
		k0, k1 := h.key(i)
		if home := HashPacked(k0, k1) & mask; (i-home)&mask < (i-hole)&mask {
			continue
		}
		h.fill(hole, k0, k1, id1, h.slots[i].above)
		hole = i
	}
	h.fill(hole, 0, 0, 0, 0)
	return true
}

// Compiled is the packet-level compiled matcher over a rule set. It is
// immutable after Compile and safe for concurrent use; Classify performs
// no heap allocation for key layouts up to 64 bytes.
type Compiled struct {
	offsets      []int
	defaultClass int
	idx          *KeyIndex
	// classes[i] is rule i's class, which Classify answers with.
	classes []int
}

// Compile builds an immutable matcher from a rule set. Rule order (as
// maintained by RuleSet.Add: descending priority, stable) is preserved,
// so Compile agrees exactly with the first-match-wins reference scan
// rules.RuleSet.ClassifyDetail. The rows are RuleSet.RangeKeys': predicates
// repeated on one offset are intersected, and a predicate on an offset
// outside the key layout is an error.
func Compile(rs *rules.RuleSet) (*Compiled, error) {
	if rs == nil {
		return nil, fmt.Errorf("match: nil rule set")
	}
	keys, err := rs.RangeKeys()
	if err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	m := &Compiled{
		offsets:      append([]int(nil), rs.Offsets...),
		defaultClass: rs.DefaultClass,
		classes:      make([]int, len(rs.Rules)),
	}
	for r := range rs.Rules {
		m.classes[r] = rs.Rules[r].Class
	}
	if m.idx, err = CompileRanges(len(rs.Offsets), len(rs.Rules), keys); err != nil {
		return nil, err
	}
	return m, nil
}

// Classify returns the class of the highest-priority matching rule, or
// the default class when nothing matches.
func (m *Compiled) Classify(pkt *packet.Packet) (class int, matched bool) {
	var kb [stackKeyBytes]byte
	var key []byte
	if len(m.offsets) <= len(kb) {
		key = kb[:len(m.offsets)]
	} else {
		key = make([]byte, len(m.offsets))
	}
	for i, off := range m.offsets {
		key[i] = pkt.ByteAt(off)
	}
	return m.ClassifyKey(key)
}

// ClassifyKey classifies an already-extracted match key (one byte per
// key offset, in layout order).
func (m *Compiled) ClassifyKey(key []byte) (class int, matched bool) {
	if row, ok := m.idx.Find(key); ok {
		return m.classes[row], true
	}
	return m.defaultClass, false
}
