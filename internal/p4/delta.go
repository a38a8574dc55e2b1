package p4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Incremental reprogramming. A Delta edits the canonical programmed
// entry list (Table.Replace's wire-order list) in place: deletions and
// priority moves address base entries by canonical index, adds and
// moves carry the index (Order) they occupy in the resulting program.
// Surviving entries fill the remaining slots in base order, so applying
// a delta reproduces exactly the program a full Replace of the new
// entry list would install — while sharing every surviving entry
// (counters included), preserving reactive Inserts, and, on a range
// table, editing the lookup index rather than rebuilding it
// (Table.derive).
//
// A delta names its base with (BaseCount, BaseHash); Apply refuses a
// delta whose base does not match the installed program (ErrDeltaBase),
// which is the signal for the control plane to fall back to a full
// swap.

// ErrDeltaBase reports a delta aimed at a different base program than
// the one installed.
var ErrDeltaBase = errors.New("delta base mismatch")

// DeltaMove reprioritizes one base entry: the entry at canonical index
// Base is re-created with Priority at index Order of the new program.
// (The re-created entry gets a fresh ID and fresh counters; a move is
// a delete+add that happens to reuse the match fields.)
type DeltaMove struct {
	Base     int
	Priority int
	Order    int
}

// DeltaAdd inserts a new entry at canonical index Order of the new
// program.
type DeltaAdd struct {
	Entry Entry
	Order int
}

// Delta is an incremental edit of a table's canonical program.
type Delta struct {
	// BaseCount and BaseHash identify the program the delta was computed
	// against (see Table.ProgramSignature). BaseHash 0 skips the hash
	// check (count is always checked).
	BaseCount int
	BaseHash  uint64

	Deletes []int
	Moves   []DeltaMove
	Adds    []DeltaAdd
}

// Size is the number of edit operations the delta carries.
func (d *Delta) Size() int { return len(d.Deletes) + len(d.Moves) + len(d.Adds) }

// NewCount is the entry count of the program the delta produces.
func (d *Delta) NewCount() int { return d.BaseCount - len(d.Deletes) + len(d.Adds) }

// DeltaRow is what the diff and the program signature read of one
// program row: its priority, its match fields and its action. A program
// is exchanged as []Entry here, held as []p4rt.WireEntry on the control
// channel and stored as rows in a table; all three are viewed through a
// DeltaRow, so one diff and one hash serve them without converting any.
type DeltaRow struct {
	Priority int
	Action   Action
	Value    []byte
	Mask     []byte
	Lo       []byte
	Hi       []byte
}

// deltaRow fills r with the entry's view (always ok; the signature is
// the view DiffRows takes). Field by field: a composite literal would be
// built aside and copied in.
func (e *Entry) deltaRow(r *DeltaRow) bool {
	r.Priority, r.Action = e.Priority, e.Action
	r.Value, r.Mask, r.Lo, r.Hi = e.Value, e.Mask, e.Lo, e.Hi
	return true
}

// FNV-1a, 64 bit. fnvZeros[k] is the prime to the k-th power: a zero
// byte leaves h^b == h, so k zero bytes are one multiply by it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

var fnvZeros = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnvUint64 folds v's eight big-endian bytes into h. What is hashed this
// way — lengths, priorities, classes — is small, so the leading zero
// bytes that make up most of the encoding cost one multiply together.
func fnvUint64(h, v uint64) uint64 {
	z := bits.LeadingZeros64(v) / 8
	h *= fnvZeros[z]
	for s := 56 - 8*z; s >= 0; s -= 8 {
		h = (h ^ (v>>uint(s))&0xff) * fnvPrime64
	}
	return h
}

// fnvField folds a length-prefixed byte field into h.
func fnvField(h uint64, b []byte) uint64 {
	h = fnvUint64(h, uint64(len(b)))
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// hash is HashEntry of the row: FNV-1a over the big-endian priority, a
// zero word, the action type and class, then each of Value, Mask, Lo and
// Hi behind its length. BaseHash is compared between processes that may
// run different versions, so the value for a given row never changes
// (TestHashEntryMatchesFNV1a): the zero word is where a field no row
// carries any more was folded in.
func (r *DeltaRow) hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint64(h, uint64(int64(r.Priority)))
	h = fnvUint64(h, 0)
	h = fnvUint64(h, uint64(int64(r.Action.Type)))
	h = fnvUint64(h, uint64(int64(r.Action.Class)))
	h = fnvField(h, r.Value)
	h = fnvField(h, r.Mask)
	h = fnvField(h, r.Lo)
	return fnvField(h, r.Hi)
}

// sameKey reports whether two rows pair in a diff: every field but the
// priority is equal, so a priority change pairs up as a move.
func (r *DeltaRow) sameKey(o *DeltaRow) bool {
	return r.Action == o.Action &&
		bytes.Equal(r.Value, o.Value) && bytes.Equal(r.Mask, o.Mask) &&
		bytes.Equal(r.Lo, o.Lo) && bytes.Equal(r.Hi, o.Hi)
}

// keyHash hashes the fields sameKey compares, a word at a time: the
// scalars and the four lengths in two words, then the bytes. It only
// places rows in the diff's table and never leaves the process, so
// unlike hash it is free to change.
func keyHash(r *DeltaRow) uint64 {
	h := mixWord(0, uint64(r.Action.Type)^uint64(r.Action.Class)<<32)
	h = mixWord(h, uint64(len(r.Value))^uint64(len(r.Mask))<<16^uint64(len(r.Lo))<<32^uint64(len(r.Hi))<<48)
	h = mixBytes(h, r.Value)
	h = mixBytes(h, r.Mask)
	h = mixBytes(h, r.Lo)
	return mixBytes(h, r.Hi)
}

func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// mixBytes folds b into h; b's length is already in h, so the last
// word may overlap the one before it.
func mixBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(b))
	}
	switch n := len(b); {
	case n >= 4:
		h = mixWord(h, uint64(binary.LittleEndian.Uint32(b))|uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32)
	case n > 0:
		h = mixWord(h, uint64(b[0])|uint64(b[n/2])<<8|uint64(b[n-1])<<16)
	}
	return h
}

// rowIndex is the diff's hash table: open addressing with linear probing
// over slots that hold a tag (the key hash's high half) and a row
// reference (low half, 1-based; 0 is an empty slot). References up to
// len(old) name old rows, the ones above name rows of new that paired
// with no old row. The rows themselves stay where they are: a probe
// that meets its tag views the referenced row and compares it, so a
// hash collision costs a compare and never a wrong pairing.
type rowIndex[R any] struct {
	old, new []R
	view     func(*R, *DeltaRow) bool
	slots    []uint64
	// row is the row being placed, hit the indexed row find compared it
	// with last. view is an indirect call, so what it fills cannot live
	// on the stack; here it is allocated once with the index.
	row, hit DeltaRow
}

// find probes for a row pairing with x.row, whose key hash is h. It
// returns that row's reference, leaving its view in x.hit, or 0 and the
// empty slot where x.row's own reference belongs.
func (x *rowIndex[R]) find(h uint64) (slot, ref int) {
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return int(i), 0
		}
		if s>>32 != h>>32 {
			continue
		}
		ref = int(uint32(s))
		if ref <= len(x.old) {
			x.view(&x.old[ref-1], &x.hit)
		} else {
			x.view(&x.new[ref-1-len(x.old)], &x.hit)
		}
		if x.row.sameKey(&x.hit) {
			return int(i), ref
		}
	}
}

func (x *rowIndex[R]) put(slot int, h uint64, ref int) {
	x.slots[slot] = h&^0xffffffff | uint64(uint32(ref))
}

// DiffRows is ComputeDelta over programs held in any row type, read
// through view (which reports false for a row it cannot express, making
// the diff fail). The Adds of the delta it returns carry only their
// Order, an index into new: the caller owns the rows and fills in or
// sends new[Order] in whatever form it keeps them.
//
// The cost is one pass over each program and, whatever their length,
// four allocations plus the growth of Moves and Adds: the index and its
// slots, one flag per old row, and Deletes. Nothing depends on where in
// the program the changed rows sit.
func DiffRows[R any](old, new []R, view func(*R, *DeltaRow) bool) (Delta, bool) {
	return diffRows(old, new, view, ^uint64(0))
}

// diffRows is DiffRows with a mask on the key hash: zero puts every row
// on one probe chain behind one tag, so that a test can see pairing rest
// on the row compare alone.
func diffRows[R any](old, new []R, view func(*R, *DeltaRow) bool, hashMask uint64) (Delta, bool) {
	// At most every row of both programs is indexed; twice that many
	// slots keeps the load under a half. References are 32 bits, far
	// beyond any program that fits in memory as rows.
	size := 2
	for size < 2*(len(old)+len(new)) {
		size <<= 1
	}
	x := &rowIndex[R]{old: old, new: new, view: view, slots: make([]uint64, size)}
	d := Delta{BaseCount: len(old)}
	for i := range old {
		if !view(&old[i], &x.row) {
			return Delta{}, false
		}
		d.BaseHash ^= x.row.hash()
		h := keyHash(&x.row) & hashMask
		slot, ref := x.find(h)
		if ref != 0 { // two old rows with one key: which of them survives is ambiguous
			return Delta{}, false
		}
		x.put(slot, h, i+1)
	}
	matched := make([]bool, len(old))
	nMatched := 0
	// Surviving (unmoved) pairs must keep their relative base order —
	// the splice places survivors in base order, so a reordering diff
	// cannot round-trip.
	lastSurvivor := -1
	for ni := range new {
		if !view(&new[ni], &x.row) {
			return Delta{}, false
		}
		h := keyHash(&x.row) & hashMask
		slot, ref := x.find(h)
		if ref == 0 {
			x.put(slot, h, len(old)+ni+1)
			d.Adds = append(d.Adds, DeltaAdd{Order: ni})
			continue
		}
		oi := ref - 1
		if oi >= len(old) || matched[oi] { // two new rows with one key
			return Delta{}, false
		}
		matched[oi] = true
		nMatched++
		if x.hit.Priority != x.row.Priority {
			d.Moves = append(d.Moves, DeltaMove{Base: oi, Priority: x.row.Priority, Order: ni})
			continue
		}
		if oi < lastSurvivor {
			return Delta{}, false
		}
		lastSurvivor = oi
	}
	if nMatched < len(old) {
		d.Deletes = make([]int, 0, len(old)-nMatched)
		for i := range old {
			if !matched[i] {
				d.Deletes = append(d.Deletes, i)
			}
		}
	}
	return d, true
}

// ComputeDelta diffs two canonical programs, pairing entries on every
// field but the priority (match fields and action). ok is false when the
// diff cannot be expressed as a valid delta — two entries pairing with
// each other on either side, or surviving entries whose relative order
// changed — in which case the caller must fall back to a full Replace.
// An ok delta applied to old yields a program entry-for-entry identical
// to new (IDs aside).
func ComputeDelta(old, new []Entry) (Delta, bool) {
	d, ok := DiffRows(old, new, (*Entry).deltaRow)
	for i := range d.Adds {
		d.Adds[i].Entry = new[d.Adds[i].Order]
	}
	return d, ok
}

// Apply edits the canonical program incrementally and atomically: the
// new lookup generation is published in one store, sharing with the
// previous one every surviving entry (and its counters), the reactive
// Inserts and whatever of the index the edit does not touch (see derive).
// On any error the table is unchanged.
//
// On a range table the cost is O(survivors) pointer moves — the program
// and the sorted entry list are spliced, never re-sorted — plus what the
// edited rows cost the index: one hash slot per added point row and a copy
// of the hash when any leaves. Its index is compiled from scratch only for
// what the hash cannot express: a range row added, removed or
// re-prioritised, a key two rows share, a key too wide to pack. A ternary
// table compiles its store on every apply.
func (t *Table) Apply(d Delta) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLocked(d, t.DefaultAction)
}

// ProgramDelta is Apply with the default action set in the generation the
// delta publishes — the incremental twin of Program: no lookup sees the
// new entries under the old default or the new default over the old
// entries. On error the table, default included, is unchanged.
func (t *Table) ProgramDelta(def Action, d Delta) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLocked(d, def)
}

func (t *Table) applyLocked(d Delta, def Action) error {
	if d.BaseCount != len(t.prog) {
		return fmt.Errorf("table %s: base count %d != installed %d: %w",
			t.Name, d.BaseCount, len(t.prog), ErrDeltaBase)
	}
	if d.BaseHash != 0 && d.BaseHash != t.progHash {
		return fmt.Errorf("table %s: base hash %#x != installed %#x: %w",
			t.Name, d.BaseHash, t.progHash, ErrDeltaBase)
	}
	newCount := d.NewCount()
	if newCount < 0 {
		return fmt.Errorf("table %s: delta deletes more than base: %w", t.Name, ErrBadEntry)
	}
	if t.MaxEntries > 0 && newCount+len(t.inserted) > t.MaxEntries {
		return fmt.Errorf("table %s (%d entries): %w", t.Name, newCount+len(t.inserted), ErrTableFull)
	}
	// Newcomers are built like a program, in slabs sized first so that rows
	// stay where they are added: the adds now, validated, the moves later.
	var built Rows
	w := t.width()
	built.Grow(len(d.Adds)+len(d.Moves), 2*w*(len(d.Adds)+len(d.Moves)))
	for i := range d.Adds {
		built.addEntry(t, &d.Adds[i].Entry)
		if err := t.checkRow(&built, i, w); err != nil {
			return fmt.Errorf("table %s: add %d: %w", t.Name, i, err)
		}
	}
	// Removed base slots (deletes + move sources) must be unique and in
	// range; target orders must be unique and in range. A dense bitmap
	// beats a map here: the splice and removed-entry sweeps below probe
	// it once per base slot.
	removed := make([]bool, d.BaseCount)
	for _, i := range d.Deletes {
		if i < 0 || i >= d.BaseCount || removed[i] {
			return fmt.Errorf("table %s: delete index %d: %w", t.Name, i, ErrBadEntry)
		}
		removed[i] = true
	}
	for _, m := range d.Moves {
		if m.Base < 0 || m.Base >= d.BaseCount || removed[m.Base] || int(int32(m.Priority)) != m.Priority {
			return fmt.Errorf("table %s: move base %d: %w", t.Name, m.Base, ErrBadEntry)
		}
		removed[m.Base] = true
	}
	// Newcomers (moves + adds) in target order, so IDs are assigned in
	// canonical order and priority ties resolve exactly as a full
	// Replace of the new program would.
	type newcomer struct {
		e     *row
		order int
	}
	newcomers := make([]newcomer, 0, len(d.Moves)+len(d.Adds))
	for _, m := range d.Moves {
		// Field by field: a whole-struct copy would read the live atomic
		// counters non-atomically under concurrent forwarding.
		src := t.prog[m.Base]
		built.Add(m.Priority, src.lo(), src.hi(), src.Action)
		newcomers = append(newcomers, newcomer{e: &built.rows[len(built.rows)-1], order: m.Order})
	}
	for i := range d.Adds {
		newcomers = append(newcomers, newcomer{e: &built.rows[i], order: d.Adds[i].Order})
	}
	slices.SortFunc(newcomers, func(a, b newcomer) int { return a.order - b.order })

	// Splice: newcomers claim their target slots, survivors fill the
	// rest in base order.
	newProg := make([]*row, newCount)
	for i := range newcomers {
		o := newcomers[i].order
		if o < 0 || o >= newCount || newProg[o] != nil {
			return fmt.Errorf("table %s: order %d: %w", t.Name, o, ErrBadEntry)
		}
		t.nextID++
		newcomers[i].e.ID = t.nextID
		newProg[o] = newcomers[i].e
	}
	si := 0
	removedEntries := make([]*row, 0, len(d.Deletes)+len(d.Moves))
	for i := 0; i < newCount; i++ {
		if newProg[i] != nil {
			continue
		}
		for si < len(t.prog) && removed[si] {
			si++
		}
		if si >= len(t.prog) {
			return fmt.Errorf("table %s: delta survivor underflow: %w", t.Name, ErrBadEntry)
		}
		newProg[i] = t.prog[si]
		si++
	}
	for i, e := range t.prog {
		if removed[i] {
			removedEntries = append(removedEntries, e)
		}
	}

	// Newcomers get canonical-order keys interleaving exactly as a full
	// Replace of the new program would order them: each maximal run of
	// newcomers divides the ord gap between its surviving neighbours
	// evenly. Survivor ords are immutable and base-ordered, so they are
	// strictly increasing across newProg already, and because newcomers
	// is sorted by target order, each maximal run of consecutive orders
	// is exactly one gap to split — O(edits), never a walk over the
	// whole program. A gap too narrow to split (dozens of deltas stacked
	// between the same two survivors with no intervening Replace to
	// re-gap the space) is refused as a base problem; the caller falls
	// back to a full swap.
	for i := 0; i < len(newcomers); {
		j := i
		for j+1 < len(newcomers) && newcomers[j+1].order == newcomers[j].order+1 {
			j++
		}
		start, end := newcomers[i].order, newcomers[j].order
		left := uint64(0)
		if start > 0 {
			left = newProg[start-1].ord
		}
		right := insertedOrdBase
		if end+1 < newCount {
			right = newProg[end+1].ord
		}
		step := (right - left) / uint64(j-i+2)
		if step == 0 {
			return fmt.Errorf("table %s: canonical order space exhausted; full replace required: %w",
				t.Name, ErrDeltaBase)
		}
		for k := i; k <= j; k++ {
			left += step
			newProg[newcomers[k].order].ord = left
		}
		i = j + 1
	}

	// Commit: incremental hash, then the generation.
	hash := t.progHash
	for _, e := range removedEntries {
		hash ^= t.hashRow(e)
	}
	added := make([]*row, len(newcomers))
	for i := range newcomers {
		added[i] = newcomers[i].e
		hash ^= t.hashRow(added[i])
	}
	t.prog, t.progHash, t.DefaultAction = newProg, hash, def
	t.derive(removedEntries, added)
	return nil
}
