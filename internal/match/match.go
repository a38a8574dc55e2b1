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
// cost one probe rather than thousands of bitset columns. Lookup cost is
// O(1) for the hash plus O(width × range rows/64) for the bitset, with no
// branching on rules and no allocation.
package match

import (
	"bytes"
	"fmt"
	"math/bits"

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

// KeyIndex is an immutable first-match-wins index over fixed-width byte
// keys. Row order is priority order: Find returns the lowest matching
// row index. It is safe for concurrent use, and a nil *KeyIndex is the
// empty index.
//
// The lowest matching row is the lower of the lowest matching point row
// (the hash keeps the lowest row per key) and the lowest matching range
// row (the lowest set bit, mapped back through the increasing rowMap),
// because every row is one or the other.
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
	// pts holds the point rows; nil when no row is a point, and then
	// bitset bit r is row r.
	pts *pointRows
}

// pointRows is the point half of a KeyIndex and its tie to the bitset
// half.
type pointRows struct {
	slots []ptSlot // open addressing, linear probing, at most half full
	used  int
	// rowMap maps bitset bit j to its row; firstRange is rowMap[0], or
	// the row count when every row is a point. A point hit below
	// firstRange outranks every range row.
	rowMap     []int32
	firstRange int32
}

// ptSlot is one hash slot: the packed point key and its row + 1 (0 marks
// an empty slot).
type ptSlot struct {
	k0, k1 uint64
	row1   uint32
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
func isPoint(width int, row RangeRow) bool {
	return width > 0 && width <= PackedKeyMax && bytes.Equal(row.Lo, row.Hi)
}

// newPointRows sizes an empty hash for n points (a power of two, at most
// half full) beside nRange bitset rows yet to be mapped, of nRows rows.
func newPointRows(n, nRange, nRows int) *pointRows {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return &pointRows{slots: make([]ptSlot, size), rowMap: make([]int32, 0, nRange), firstRange: int32(nRows)}
}

// put records a point row unless a lower row already owns its key. Rows
// arrive in any order; the caller keeps the table under half full.
func (pts *pointRows) put(p ptSlot) {
	mask := uint32(len(pts.slots) - 1)
	for i := HashPacked(p.k0, p.k1) & mask; ; i = (i + 1) & mask {
		s := &pts.slots[i]
		if s.row1 == 0 {
			*s = p
			pts.used++
			return
		}
		if s.k0 == p.k0 && s.k1 == p.k1 {
			if p.row1 < s.row1 {
				s.row1 = p.row1
			}
			return
		}
	}
}

// find returns the lowest point row on the key, or -1.
func (pts *pointRows) find(key []byte) int32 {
	k0, k1 := PackKey(key)
	mask := uint32(len(pts.slots) - 1)
	for i := HashPacked(k0, k1) & mask; ; i = (i + 1) & mask {
		s := &pts.slots[i]
		if s.row1 == 0 {
			return -1
		}
		if s.k0 == k0 && s.k1 == k1 {
			return int32(s.row1 - 1)
		}
	}
}

// mapRange appends the next bitset row's row number.
func (pts *pointRows) mapRange(row int32) {
	if len(pts.rowMap) == 0 {
		pts.firstRange = row
	}
	pts.rowMap = append(pts.rowMap, row)
}

// CompileRanges builds a KeyIndex over width-byte keys from rows in
// priority (first-match-wins) order.
func CompileRanges(width int, rows []RangeRow) (*KeyIndex, error) {
	if width < 0 {
		return nil, fmt.Errorf("match: negative key width %d", width)
	}
	nPoints := 0
	for r, row := range rows {
		if len(row.Lo) != width || len(row.Hi) != width {
			return nil, fmt.Errorf("match: row %d lo/hi widths %d/%d != key width %d",
				r, len(row.Lo), len(row.Hi), width)
		}
		if isPoint(width, row) {
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
	}
	if nPoints > 0 {
		ix.pts = newPointRows(nPoints, nRange, len(rows))
	}
	for i, row := range rows {
		if isPoint(width, row) {
			k0, k1 := PackKey(row.Lo)
			ix.pts.put(ptSlot{k0, k1, uint32(i) + 1})
			continue
		}
		r := i // bitset bit: the row's rank among range rows
		if ix.pts != nil {
			r = len(ix.pts.rowMap)
			ix.pts.mapRange(int32(i))
		}
		dead := false
		for pos := 0; pos < width; pos++ {
			if row.Lo[pos] > row.Hi[pos] {
				dead = true
				break
			}
		}
		if dead {
			continue
		}
		word, bit := r/64, uint64(1)<<(r%64)
		ix.rowMask[word] |= bit
		for pos := 0; pos < width; pos++ {
			col := ix.table[pos*256*nWords+word:]
			for v := int(row.Lo[pos]); v <= int(row.Hi[pos]); v++ {
				col[v*nWords] |= bit
			}
		}
	}
	return ix, nil
}

// InsertRow derives the index CompileRanges would build from ix's rows
// with row inserted at index at (rows at and after it move down one),
// for a point row: the bitset is shared with ix, only the hash and the
// row map are rebuilt. It returns nil when the row belongs in the bitset
// (a range, an unpackable width) or ix is the empty index, and the
// caller must compile from scratch.
func (ix *KeyIndex) InsertRow(at int, row RangeRow) *KeyIndex {
	if ix == nil || len(row.Lo) != ix.width || len(row.Hi) != ix.width || !isPoint(ix.width, row) {
		return nil
	}
	old := ix.pts
	if old == nil { // no point row yet: bit r was row r
		old = &pointRows{}
		for r := 0; r < ix.nRows; r++ {
			old.mapRange(int32(r))
		}
	}
	pts := newPointRows(old.used+1, len(old.rowMap), ix.nRows+1)
	sameSize := len(pts.slots) == len(old.slots) // then every key keeps its slot
	for i, s := range old.slots {
		if s.row1 > uint32(at) { // row1 is row + 1: rows from at on move down, 0 stays empty
			s.row1++
		}
		if sameSize {
			pts.slots[i] = s
		} else if s.row1 != 0 {
			pts.put(s)
		}
	}
	if sameSize {
		pts.used = old.used
	}
	k0, k1 := PackKey(row.Lo)
	pts.put(ptSlot{k0, k1, uint32(at) + 1})
	for _, r := range old.rowMap {
		if r >= int32(at) {
			r++
		}
		pts.mapRange(r)
	}
	next := *ix
	next.nRows++
	next.pts = pts
	return &next
}

// Rows returns the number of rows the index was compiled from.
func (ix *KeyIndex) Rows() int { return ix.nRows }

// Width returns the key width in bytes.
func (ix *KeyIndex) Width() int { return ix.width }

// Find returns the lowest row index matching the key. ok is false on
// miss or when the key width is wrong.
func (ix *KeyIndex) Find(key []byte) (row int, ok bool) {
	if ix == nil || len(key) != ix.width {
		return -1, false
	}
	r := ix.find(key)
	return int(r), r >= 0
}

// find is Find for a key of the index's width, -1 on miss.
func (ix *KeyIndex) find(key []byte) int32 {
	pts := ix.pts
	if pts == nil {
		return ix.findRange(key)
	}
	pt := pts.find(key)
	if pt >= 0 && pt < pts.firstRange {
		return pt
	}
	r := ix.findRange(key)
	if r >= 0 {
		r = pts.rowMap[r]
	}
	if pt >= 0 && (r < 0 || pt < r) {
		return pt
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

// Compiled is the packet-level compiled matcher over a rule set. It is
// immutable after Compile and safe for concurrent use; Classify performs
// no heap allocation for key layouts up to 64 bytes.
type Compiled struct {
	offsets      []int
	classes      []int
	defaultClass int
	idx          *KeyIndex
	// rows and priorities are retained (beyond what Classify needs) so
	// Explain can reconstruct per-byte evidence for any row.
	rows       []RangeRow
	priorities []int
}

var _ Matcher = (*Compiled)(nil)

// Compile builds an immutable matcher from a rule set. Rule order (as
// maintained by RuleSet.Add: descending priority, stable) is preserved,
// so Compile agrees exactly with the first-match-wins reference scan
// rules.RuleSet.ClassifyDetail. Predicates repeated on one offset are
// intersected; a predicate on an offset outside the key layout is an
// error, mirroring RuleSet.RangeEntries.
func Compile(rs *rules.RuleSet) (*Compiled, error) {
	if rs == nil {
		return nil, fmt.Errorf("match: nil rule set")
	}
	width := len(rs.Offsets)
	pos := make(map[int]int, width)
	for i, off := range rs.Offsets {
		pos[off] = i
	}
	rows := make([]RangeRow, len(rs.Rules))
	classes := make([]int, len(rs.Rules))
	priorities := make([]int, len(rs.Rules))
	bounds := make([]byte, 2*width*len(rs.Rules)) // every row's Lo and Hi
	for r := range rs.Rules {
		rule := &rs.Rules[r]
		row := RangeRow{Lo: bounds[:width:width], Hi: bounds[width : 2*width : 2*width]}
		bounds = bounds[2*width:]
		for i := range row.Hi {
			row.Hi[i] = 0xff
		}
		for _, p := range rule.Preds {
			i, ok := pos[p.Offset]
			if !ok {
				return nil, fmt.Errorf("match: predicate offset %d not in key layout %v", p.Offset, rs.Offsets)
			}
			if p.Lo > row.Lo[i] {
				row.Lo[i] = p.Lo
			}
			if p.Hi < row.Hi[i] {
				row.Hi[i] = p.Hi
			}
		}
		rows[r] = row
		classes[r] = rule.Class
		priorities[r] = rule.Priority
	}
	idx, err := CompileRanges(width, rows)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		offsets:      append([]int(nil), rs.Offsets...),
		classes:      classes,
		defaultClass: rs.DefaultClass,
		idx:          idx,
		rows:         rows,
		priorities:   priorities,
	}, nil
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

// Offsets returns a copy of the match-key layout.
func (m *Compiled) Offsets() []int { return append([]int(nil), m.offsets...) }

// DefaultClass returns the class assigned on miss.
func (m *Compiled) DefaultClass() int { return m.defaultClass }

// NumRules returns the number of compiled rules.
func (m *Compiled) NumRules() int { return m.idx.Rows() }
