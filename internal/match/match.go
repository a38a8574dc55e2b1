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

// Matcher classifies packets with data-plane semantics: the class of the
// highest-priority matching rule, or the default class on miss.
type Matcher interface {
	// Classify returns the class for the packet and whether any rule
	// (vs the default) matched.
	Classify(pkt *packet.Packet) (class int, matched bool)
	// Offsets returns the match-key layout (header byte offsets).
	Offsets() []int
	// DefaultClass returns the class assigned on miss.
	DefaultClass() int
}

// stackKeyBytes is the widest key classified without heap allocation.
// packet.HeaderWindow bounds every learned layout, so the spill path is
// effectively unreachable for compiled pipelines.
const stackKeyBytes = 64

// RangeRow is one row of a key-level index: key byte i must lie in
// [Lo[i], Hi[i]] inclusive. A row whose Lo[i] > Hi[i] admits nothing
// (rows compiled from contradictory predicates are kept, dead, to
// preserve row numbering).
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
	// slots holds the point rows: open addressing, linear probing, at
	// most half full; nil when no row is a point. The array is shared
	// with the generations Edit derives from this one by adding rows,
	// which fill slots this one reads as empty (see findPoint). nPoints
	// counts the slots this generation reads as filled.
	slots   []ptSlot
	nPoints int
	// shadowed lists the packed keys of the point rows compiled behind
	// another row on their key, which the hash does not hold.
	shadowed [][2]uint64
}

// ptSlot is one hash slot: the packed point key, the number of range
// rows ahead of the point, and its row id + 1 (0 marks an empty slot).
// Once a reader can have the array a slot is written once, by fill, and
// never again.
type ptSlot struct {
	k0, k1 uint64
	id1    atomic.Uint32
	above  uint32
}

// fill writes an empty slot: the id last, so that whoever loads it finds
// the rest written.
func (s *ptSlot) fill(k0, k1 uint64, id1, above uint32) {
	s.k0, s.k1, s.above = k0, k1, above
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

// dead reports a row that admits no key.
func (row RangeRow) dead() bool {
	for pos := range row.Lo {
		if row.Lo[pos] > row.Hi[pos] {
			return true
		}
	}
	return false
}

// isPoint reports a row the hash can hold: one key of packable width.
func isPoint(width int, row RangeRow) bool {
	return width > 0 && width <= PackedKeyMax && bytes.Equal(row.Lo, row.Hi)
}

// newSlots sizes an empty hash for n points: a power of two, at most
// half full.
func newSlots(n int) []ptSlot {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return make([]ptSlot, size)
}

// probe returns the slot holding the key, or the empty slot where it
// belongs. It is the writer's walk: it reads every filled slot, whatever
// generation filled it, so only the goroutine that fills slots calls it.
func probe(slots []ptSlot, k0, k1 uint64) *ptSlot {
	mask := uint32(len(slots) - 1)
	for i := HashPacked(k0, k1) & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.id1.Load() == 0 || (s.k0 == k0 && s.k1 == k1) {
			return s
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
	slots, n := ix.slots, uint32(ix.nRows)
	mask := uint32(len(slots) - 1)
	for i := HashPacked(k0, k1) & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		id1 := s.id1.Load()
		if id1-1 >= n { // empty (0 wraps), or filled after this generation
			return -1, 0
		}
		if s.k0 == k0 && s.k1 == k1 {
			return int32(id1 - 1), s.above
		}
	}
}

// CompileRanges builds a KeyIndex over width-byte keys from rows in
// priority (first-match-wins) order; row i has id i.
func CompileRanges(width int, rows []RangeRow) (*KeyIndex, error) {
	if width < 0 {
		return nil, fmt.Errorf("match: negative key width %d", width)
	}
	// One bit a row: whether it is a point, decided once (a learned table's
	// few rows fit the stack). The hash and the bitset are sized from the
	// counts before any row is placed.
	var few [4]uint64
	point := few[:]
	if n := (len(rows) + 63) / 64; n > len(few) {
		point = make([]uint64, n)
	}
	nPoints := 0
	for r, row := range rows {
		if len(row.Lo) != width || len(row.Hi) != width {
			return nil, fmt.Errorf("match: row %d lo/hi widths %d/%d != key width %d",
				r, len(row.Lo), len(row.Hi), width)
		}
		if isPoint(width, row) {
			point[r/64] |= 1 << (r % 64)
			nPoints++
		}
	}
	nRange := len(rows) - nPoints
	nWords := (nRange + 63) / 64
	ix := &KeyIndex{
		width:   width,
		nRows:   len(rows),
		nWords:  nWords,
		rowMask: make([]uint64, nWords),
		table:   make([]uint64, width*256*nWords),
		nRange:  nRange,
	}
	if nPoints > 0 {
		ix.slots = newSlots(nPoints)
		ix.rangeID = make([]int32, 0, nRange)
	}
	for i, row := range rows {
		if point[i/64]>>(i%64)&1 != 0 {
			// The first row on a key owns it: a later one never matches first.
			k0, k1 := PackKey(row.Lo)
			if s := probe(ix.slots, k0, k1); s.id1.Load() == 0 {
				s.fill(k0, k1, uint32(i)+1, uint32(len(ix.rangeID)))
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
		if !row.dead() {
			ix.admit(r, row)
		}
	}
	return ix, nil
}

// admit sets bit r of the interval table under every value the row admits
// at every key position. It is most of what compiling a table of a few
// wide ranges costs, and a function of its own so that the loop is
// compiled the same whatever CompileRanges holds live around the call.
func (ix *KeyIndex) admit(r int, row RangeRow) {
	word, bit := r/64, uint64(1)<<(r%64)
	ix.rowMask[word] |= bit
	nWords := ix.nWords // a store into the table could be one into ix, for all the compiler knows
	for pos := 0; pos < ix.width; pos++ {
		col := ix.table[pos*256*nWords+word:]
		for v, hi := int(row.Lo[pos]), int(row.Hi[pos]); v <= hi; v++ {
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

// Rows returns the number of row ids handed out: the rows the index was
// compiled from and every row added since, whether or not it is still
// there.
func (ix *KeyIndex) Rows() int { return ix.nRows }

// Width returns the key width in bytes.
func (ix *KeyIndex) Width() int { return ix.width }

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
			if len(row.Lo) != ix.width || len(row.Hi) != ix.width || !isPoint(ix.width, row) {
				return nil
			}
		}
	}
	next := *ix
	switch n := ix.nPoints - len(del) + len(add); {
	case 2*n > len(ix.slots):
		next.slots = newSlots(n)
		for i := range ix.slots {
			s := &ix.slots[i]
			if id1 := s.id1.Load(); id1-1 < uint32(ix.nRows) { // 0 wraps
				probe(next.slots, s.k0, s.k1).fill(s.k0, s.k1, id1, s.above)
			}
		}
	case len(del) > 0:
		next.slots = append([]ptSlot(nil), ix.slots...)
	}
	for _, row := range del {
		k0, k1 := PackKey(row.Lo)
		if slices.Contains(ix.shadowed, [2]uint64{k0, k1}) || !unfill(next.slots, k0, k1) {
			return nil
		}
	}
	next.nPoints -= len(del)
	for i, row := range add {
		k0, k1 := PackKey(row.Lo)
		s := probe(next.slots, k0, k1)
		if s.id1.Load() != 0 {
			return nil
		}
		s.fill(k0, k1, uint32(next.nRows)+1, uint32(above[i]))
		next.nRows++
		next.nPoints++
	}
	return &next
}

// unfill empties the slot holding the key, in a hash no reader has yet,
// and closes the hole: each later slot of the run that its own probe
// reaches only through the hole moves back into it. It reports whether
// the key was there.
func unfill(slots []ptSlot, k0, k1 uint64) bool {
	mask := uint32(len(slots) - 1)
	hole := HashPacked(k0, k1) & mask
	for s := &slots[hole]; s.k0 != k0 || s.k1 != k1 || s.id1.Load() == 0; s = &slots[hole] {
		if s.id1.Load() == 0 {
			return false
		}
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		id1 := s.id1.Load()
		if id1 == 0 {
			break
		}
		// s stays where it is when its home lies behind the hole, (hole, i].
		if home := HashPacked(s.k0, s.k1) & mask; (i-home)&mask < (i-hole)&mask {
			continue
		}
		slots[hole].fill(s.k0, s.k1, id1, s.above)
		hole = i
	}
	slots[hole].fill(0, 0, 0, 0)
	return true
}

// Compiled is the packet-level compiled matcher over a rule set. It is
// immutable after Compile and safe for concurrent use; Classify performs
// no heap allocation for key layouts up to 64 bytes.
type Compiled struct {
	offsets      []int
	defaultClass int
	idx          *KeyIndex
	// rows[i] is rule i's row (rules.RuleSet.RangeRows): the class Classify
	// answers with, and the bounds and priority Explain reconstructs
	// per-byte evidence from.
	rows []rules.RangeEntry
	dead int // rows that admit no key
}

var _ Matcher = (*Compiled)(nil)

// Compile builds an immutable matcher from a rule set. Rule order (as
// maintained by RuleSet.Add: descending priority, stable) is preserved,
// so Compile agrees exactly with the first-match-wins reference scan
// rules.RuleSet.ClassifyDetail. The rows are RuleSet.RangeRows': predicates
// repeated on one offset are intersected, and a predicate on an offset
// outside the key layout is an error.
func Compile(rs *rules.RuleSet) (*Compiled, error) {
	if rs == nil {
		return nil, fmt.Errorf("match: nil rule set")
	}
	rows, err := rs.RangeRows()
	if err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	m := &Compiled{
		offsets:      append([]int(nil), rs.Offsets...),
		defaultClass: rs.DefaultClass,
		rows:         rows,
	}
	bounds := make([]RangeRow, len(rows))
	for r := range rows {
		bounds[r] = RangeRow{Lo: rows[r].Lo, Hi: rows[r].Hi}
		if bounds[r].dead() {
			m.dead++
		}
	}
	if m.idx, err = CompileRanges(len(rs.Offsets), bounds); err != nil {
		return nil, err
	}
	return m, nil
}

// RangeEntries returns the rule set's live rows as Compile holds them —
// what RuleSet.RangeEntries would compute again. The rows are the
// matcher's own: read, do not write.
func (m *Compiled) RangeEntries() []rules.RangeEntry {
	if m.dead == 0 {
		return m.rows
	}
	live := make([]rules.RangeEntry, 0, len(m.rows)-m.dead)
	for r := range m.rows {
		if !(RangeRow{Lo: m.rows[r].Lo, Hi: m.rows[r].Hi}).dead() {
			live = append(live, m.rows[r])
		}
	}
	return live
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
		return m.rows[row].Class, true
	}
	return m.defaultClass, false
}

// Offsets returns a copy of the match-key layout.
func (m *Compiled) Offsets() []int { return append([]int(nil), m.offsets...) }

// DefaultClass returns the class assigned on miss.
func (m *Compiled) DefaultClass() int { return m.defaultClass }

// NumRules returns the number of compiled rules.
func (m *Compiled) NumRules() int { return m.idx.Rows() }
