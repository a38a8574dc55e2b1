package p4

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"p4guard/internal/match"
)

// Entry is one table row as it crosses the table's API, an exchange value:
// what Insert, Replace and a delta's adds take and Entries returns. The
// table copies what it stores into a row of its own (see row): the buffers
// are the caller's again when the call returns. The table's kind says which
// match fields are read, and only those are stored:
//
//   - ternary: Value and Mask (full key width), Priority breaks overlaps
//   - range:   Lo and Hi per key byte (inclusive), Priority breaks overlaps
//
// Priority is stored in 32 bits; an entry past that is refused.
type Entry struct {
	ID       uint64
	Priority int
	Value    []byte
	Mask     []byte
	Lo       []byte
	Hi       []byte
	Action   Action
}

// Table is one match–action table. Mutations (insert/delete/replace/
// program/apply) are serialized by mu and publish an immutable
// lookupState snapshot; the lookup hot path reads the snapshot through
// one atomic load and touches no lock at all. Hit/miss counters are
// atomics shared across snapshots.
//
// Rows live in two pools: prog is the canonical programmed list in
// wire order (what Replace installed, edited in place by Apply), and
// inserted holds reactive single-entry Inserts. Deltas address prog by
// canonical index and never disturb inserted, so reactive state
// survives an incremental reprogram that would be wiped by a full
// Replace.
type Table struct {
	Name          string
	Kind          MatchKind
	Key           []FieldSpec
	MaxEntries    int
	DefaultAction Action

	mu       sync.Mutex // serializes mutation; never taken by Lookup
	nextID   uint64
	prog     []*row // canonical programmed rows, wire order
	progHash uint64 // order-independent signature of prog (see HashEntry)
	inserted []*row // reactive Inserts, chronological
	state    atomic.Pointer[lookupState]
	hits     uint64 // accessed atomically
	misses   uint64 // accessed atomically
}

// lookupState is one immutable generation of the table's lookup index.
// Every mutation builds a fresh state (lookups still read the old one), so
// concurrent lookups on an old generation never observe a partial update.
// Row pointers are shared across generations, keeping per-entry hit
// counters stable over reprogramming.
type lookupState struct {
	kind  MatchKind
	key   []FieldSpec
	width int
	def   Action
	rows  int // live entries
	// sorted is the match-ordered list of the last compile or splice: the
	// generation's rows but for those of byID[covered:], which were installed
	// since. Forwarding never reads it (find resolves through the index and
	// byID), so an install leaves it alone; the readers that want match order
	// take it from ordered, which merges the installed rows in once.
	sorted    []*row
	covered   int
	mergeOnce sync.Once
	merged    []*row
	// byID holds a range table's entries by the row id rangeIdx resolves a
	// key to: a row's place in sorted when the index was compiled, its
	// arrival order after that. A derived generation appends its newcomers
	// to the array the previous generations still read, past their lengths;
	// the id of a row that left stays behind, named by nothing in this
	// generation's index, until the next compile (see derive).
	byID     []*row
	tstore   *ternaryStore   // partitioned hash-indexed ternary index
	rangeIdx *match.KeyIndex // range-match index (row id i = byID[i])
}

// NewTable constructs an empty table. MaxEntries <= 0 means unlimited.
func NewTable(name string, kind MatchKind, key []FieldSpec, maxEntries int, def Action) *Table {
	t := &Table{
		Name: name, Kind: kind, Key: key, MaxEntries: maxEntries,
		DefaultAction: def,
	}
	t.reindex()
	return t
}

// width returns the key width in bytes.
func (t *Table) width() int { return KeyWidth(t.Key) }

// checkRow is the one validation: of a row as it was built, from an entry
// or by a decoder, against the table's kind, key width and what a row holds.
func (t *Table) checkRow(r *Rows, i, w int) error {
	e, odd := &r.rows[i], r.odd != nil && r.odd.at == i
	priority, lo, hi := int(e.Priority), e.lo(), e.hi()
	if odd {
		priority, lo, hi = r.odd.priority, e.key[:r.odd.split], e.key[r.odd.split:]
	}
	switch t.Kind {
	case MatchTernary:
		if len(lo) != w || len(hi) != w {
			return fmt.Errorf("ternary value/mask widths %d/%d != key %d: %w", len(lo), len(hi), w, ErrBadEntry)
		}
		for i := range lo {
			if lo[i]&^hi[i] != 0 {
				return fmt.Errorf("ternary value bit outside mask at byte %d: %w", i, ErrBadEntry)
			}
		}
	case MatchRange:
		if len(lo) != w || len(hi) != w {
			return fmt.Errorf("range lo/hi widths %d/%d != key %d: %w", len(lo), len(hi), w, ErrBadEntry)
		}
		for i := range lo {
			if lo[i] > hi[i] {
				return fmt.Errorf("range lo>hi at byte %d: %w", i, ErrBadEntry)
			}
		}
	default:
		return fmt.Errorf("unknown match kind %v: %w", t.Kind, ErrBadEntry)
	}
	if odd { // its halves are of a length: the priority is what does not fit
		return fmt.Errorf("priority %d outside 32 bits: %w", priority, ErrBadEntry)
	}
	return nil
}

// hashRow is HashEntry of the entry e was stored from. Field by field: a
// composite literal would be built aside and copied in.
func (t *Table) hashRow(e *row) uint64 {
	var r DeltaRow
	r.Priority, r.Action, r.Lo, r.Hi = int(e.Priority), e.Action, e.lo(), e.hi()
	if t.Kind == MatchTernary {
		r.Value, r.Mask, r.Lo, r.Hi = r.Lo, r.Hi, nil, nil
	}
	return r.hash()
}

// entryCount returns prog+inserted size; callers hold t.mu.
func (t *Table) entryCount() int { return len(t.prog) + len(t.inserted) }

// Canonical-order bands: programmed entries get gapped wire-order ords
// (progOrdStride apart; Apply bisects the gaps for newcomers), and
// reactive Inserts order above every possible programmed ord — keeping
// the historical "programmed before inserted" resolution of priority
// ties.
const (
	progOrdStride   = uint64(1) << 32
	insertedOrdBase = uint64(1) << 56
)

// Insert adds a reactive entry and returns its assigned ID. Inserted
// entries live outside the canonical program: they survive Apply deltas
// and are dropped by Replace/Program full swaps.
func (t *Table) Insert(e Entry) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var one Rows
	one.addEntry(t, &e)
	if err := t.checkRow(&one, 0, t.width()); err != nil {
		return 0, fmt.Errorf("table %s: %w", t.Name, err)
	}
	if t.MaxEntries > 0 && t.entryCount() >= t.MaxEntries {
		return 0, fmt.Errorf("table %s (%d entries): %w", t.Name, t.entryCount(), ErrTableFull)
	}
	stored := &one.rows[0]
	t.nextID++
	stored.ID, stored.ord = t.nextID, insertedOrdBase+t.nextID // IDs are monotonic: insertion order
	t.inserted = append(t.inserted, stored)
	t.derive(nil, []*row{stored})
	return stored.ID, nil
}

// KeySpecs returns a copy of the table's current key layout.
func (t *Table) KeySpecs() []FieldSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FieldSpec(nil), t.Key...)
}

// Replace atomically swaps the table's full canonical entry list under
// the current schema, rebuilding the lookup index once. Reactive
// Inserts are dropped (the swap defines the table's entire contents);
// use Apply for an incremental edit that preserves them. On error the
// table is unchanged. The caller keeps entries and the buffers they name:
// the table stores rows of its own.
func (t *Table) Replace(entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r Rows
	r.Grow(len(entries), 2*t.width()*len(entries))
	for i := range entries {
		r.addEntry(t, &entries[i])
	}
	return t.install(&r)
}

// install makes r's rows the table's program. The row slice is the
// program's slab, copied to its length if it has more than 1/128 to spare;
// it lives until the next full swap or until its last row has left. Every
// row is validated first: a refused program leaves r and the table as they
// were, an accepted one empties r.
func (t *Table) install(r *Rows) error {
	rows, w := r.rows, t.width()
	if t.MaxEntries > 0 && len(rows) > t.MaxEntries {
		return fmt.Errorf("table %s (%d entries): %w", t.Name, len(rows), ErrTableFull)
	}
	for i := range rows {
		if err := t.checkRow(r, i, w); err != nil {
			return fmt.Errorf("table %s: entry %d: %w", t.Name, i, err)
		}
	}
	if n := len(rows); cap(rows)-n > n/128+1 {
		rows = append(make([]row, 0, n), rows...)
	}
	*r = Rows{}
	t.prog, t.progHash = make([]*row, len(rows)), 0
	for i := range rows {
		e := &rows[i]
		t.nextID++
		e.ID, e.ord = t.nextID, uint64(i+1)*progOrdStride
		t.prog[i] = e
		t.progHash ^= t.hashRow(e)
	}
	t.inserted = nil
	t.reindex()
	return nil
}

// Program atomically replaces the table's key layout, default action, and
// entry list, rebuilding the lookup index once and publishing it in one
// store: no lookup ever sees the new default without the new entries. On
// error the table — schema, default, entries — is unchanged. The table
// adopts rows (see install).
func (t *Table) Program(key []FieldSpec, def Action, rows *Rows) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	savedKey, savedDef := t.Key, t.DefaultAction
	t.Key, t.DefaultAction = key, def
	if err := t.install(rows); err != nil {
		t.Key, t.DefaultAction = savedKey, savedDef
		return err
	}
	return nil
}

// ProgramSignature identifies the canonical programmed entry list: its
// length and an order-independent hash over every entry's match fields
// (IDs and counters excluded). A Delta names the base it was computed
// against with the same pair, so Apply can refuse a delta aimed at a
// different program.
func (t *Table) ProgramSignature() (count int, hash uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.prog), t.progHash
}

// reindex sorts a freshly merged entry slice into match order, rebuilds
// the lookup index, and publishes the new state. Callers must
// hold t.mu. The previous generation's slice is never mutated (it is
// still being read lock-free); sorting happens on the merged copy.
func (t *Table) reindex() {
	merged := make([]*row, 0, t.entryCount())
	merged = append(merged, t.prog...)
	merged = append(merged, t.inserted...)
	st := &lookupState{
		kind:  t.Kind,
		key:   t.Key,
		width: t.width(),
		def:   t.DefaultAction,
	}
	sortByPriority(merged)
	switch t.Kind {
	case MatchTernary:
		st.tstore = buildTernaryStore(merged)
	case MatchRange:
		st.rangeIdx, st.byID = buildRangeIndex(st.width, merged), merged
	}
	st.sorted, st.rows, st.covered = merged, len(merged), len(st.byID)
	t.state.Store(st)
}

// ordered returns the generation's entries in match order. A generation
// nothing was installed into since its list was built — every ternary,
// freshly programmed or just-spliced one — returns that list; otherwise the
// installed rows are sorted and merged into a copy of it, once however many
// readers ask. byID is read to this generation's length: later generations
// append past it in the same array.
func (st *lookupState) ordered() []*row {
	if st.covered == len(st.byID) {
		return st.sorted
	}
	st.mergeOnce.Do(func() {
		tail := slices.Clone(st.byID[st.covered:])
		sortByPriority(tail)
		st.merged = spliceSorted(st.sorted, nil, tail)
	})
	return st.merged
}

// sortByPriority orders entries by descending priority, breaking ties
// by ascending canonical-order key — exactly the stable wire/insertion
// order the table has always used, expressed through an immutable
// per-entry field so the ternary store can resolve ties without
// knowing an entry's slice position.
func sortByPriority(entries []*row) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Priority != entries[j].Priority {
			return entries[i].Priority > entries[j].Priority
		}
		return entries[i].ord < entries[j].ord
	})
}

// beats reports whether entry e outranks f under the table's match
// order: higher priority first, then earlier canonical order. A nil f
// never beats.
func beats(e, f *row) bool {
	if f == nil {
		return true
	}
	if e.Priority != f.Priority {
		return e.Priority > f.Priority
	}
	return e.ord < f.ord
}

// rankOf returns e's place in a priority-sorted list that holds it:
// (priority, ord) is unique, so the first entry not ahead of e is e.
func rankOf(entries []*row, e *row) int {
	return sort.Search(len(entries), func(i int) bool { return !beats(entries[i], e) })
}

// buildRangeIndex compiles the priority-sorted range entries into the
// shared index from internal/match — the same engine the offline rule
// set classifies with, so table lookups and rule-set classification
// cannot drift apart. An empty table has the nil (empty) index.
func buildRangeIndex(width int, entries []*row) *match.KeyIndex {
	if len(entries) == 0 {
		return nil
	}
	rows := make([]match.RangeRow, len(entries))
	for i, e := range entries {
		rows[i] = match.RangeRow{Lo: e.lo(), Hi: e.hi()}
	}
	idx, err := match.CompileRanges(width, rows)
	if err != nil {
		// validate pinned every entry to this width, and a layout change
		// clears the table: only a bug gets here.
		panic(err)
	}
	return idx
}

// derive publishes the generation without the entries of rm and with
// those of add (which it sorts into match order), under the table's
// current default action. It is the one routine behind Insert, Delete and
// Apply; callers hold t.mu and have edited t.prog and t.inserted.
//
// A range table builds the generation from the previous one: the index is
// edited (match.KeyIndex.Edit: a point row that joins takes the next id and
// one slot of the hash, one that leaves costs a copy of the hash; nothing a
// previous generation reads changes) and the newcomers appended to byID in
// place. Installs alone leave the match-ordered list to ordered; a
// generation that loses rows — already O(rows) for the hash copy — splices
// the merged list and is the base of those after it. What the index
// declines — a range row on either side, a key held twice, an unpackable
// width — is compiled by reindex, and so is a generation in which the ids of
// departed rows would outnumber the rows: byID pins a departed entry for as
// long as the chain of generations runs, and the compile is what ends the
// chain. A ternary table has no editor: its store is built once and only
// read, so every mutation compiles.
func (t *Table) derive(rm, add []*row) {
	prev := t.state.Load()
	slices.SortFunc(add, func(a, b *row) int {
		if beats(a, b) {
			return -1
		}
		return 1
	})
	rows := prev.rows - len(rm) + len(add)
	if ids := len(prev.byID) + len(add); t.Kind != MatchRange || ids-rows > rows {
		t.reindex()
		return
	}
	idx, byID := prev.editRange(rm, add)
	if idx == nil {
		t.reindex()
		return
	}
	st := &lookupState{
		kind: prev.kind, key: prev.key, width: prev.width, def: t.DefaultAction,
		rows: rows, sorted: prev.sorted, covered: prev.covered, byID: byID, rangeIdx: idx,
	}
	if len(rm) > 0 {
		st.sorted, st.covered = spliceSorted(prev.ordered(), rm, add), len(byID)
	}
	t.state.Store(st)
}

// editRange returns st's index and byID moved to the generation without rm
// and with add (in match order); a nil index when it declines the edit.
func (st *lookupState) editRange(rm, add []*row) (*match.KeyIndex, []*row) {
	// An install or a delete is one row: it stays on the stack.
	rows, above := make([]match.RangeRow, 0, 1), make([]int, 0, 1)
	if n := len(rm) + len(add); n > 1 {
		rows, above = make([]match.RangeRow, 0, n), make([]int, 0, len(add))
	}
	for _, e := range rm {
		rows = append(rows, match.RangeRow{Lo: e.lo(), Hi: e.hi()})
	}
	for _, e := range add {
		rows = append(rows, match.RangeRow{Lo: e.lo(), Hi: e.hi()})
		// Range rows sit in the index in match order: the ones ahead of e
		// are a prefix of them.
		above = append(above, sort.Search(st.rangeIdx.RangeRows(), func(j int) bool {
			return beats(e, st.byID[st.rangeIdx.RangeID(j)])
		}))
	}
	idx := st.rangeIdx.Edit(rows[:len(rm)], rows[len(rm):], above)
	if idx == nil {
		return nil, nil
	}
	return idx, append(st.byID, add...)
}

// spliceSorted returns the match-ordered list prev without the entries
// of rm and with those of add (itself in match order). Every place is
// binary-searched — (priority, ord) is unique — and what lies between
// two places is copied as one run, so the cost is the copy plus
// O(edits · log n) compares.
func spliceSorted(prev, rm, add []*row) []*row {
	cuts := make([]int, 0, 2) // ranks of the removed, then the end of prev
	for _, e := range rm {
		cuts = append(cuts, rankOf(prev, e))
	}
	slices.Sort(cuts)
	cuts = append(cuts, len(prev))
	out := make([]*row, 0, len(prev)-len(rm)+len(add))
	from := 0
	for _, cut := range cuts {
		for len(add) > 0 {
			at := from + sort.Search(len(prev)-from, func(i int) bool { return beats(add[0], prev[from+i]) })
			if at > cut {
				break
			}
			out = append(append(out, prev[from:at]...), add[0])
			from, add = at, add[1:]
		}
		out = append(out, prev[from:cut]...)
		from = cut + 1
	}
	return out
}

// Delete removes the entry with the given ID (programmed or reactive).
func (t *Table) Delete(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range t.prog {
		if e.ID == id {
			next := make([]*row, 0, len(t.prog)-1)
			next = append(next, t.prog[:i]...)
			next = append(next, t.prog[i+1:]...)
			t.prog = next
			t.progHash ^= t.hashRow(e)
			t.derive([]*row{e}, nil)
			return nil
		}
	}
	for i, e := range t.inserted {
		if e.ID == id {
			next := make([]*row, 0, len(t.inserted)-1)
			next = append(next, t.inserted[:i]...)
			next = append(next, t.inserted[i+1:]...)
			t.inserted = next
			t.derive([]*row{e}, nil)
			return nil
		}
	}
	return fmt.Errorf("table %s: entry %d: %w", t.Name, id, ErrBadEntry)
}

// Len returns the entry count.
func (t *Table) Len() int {
	return t.state.Load().rows
}

// Entries returns a deep copy of the installed entries in the current
// lookup generation's (priority-sorted) order, counters excluded. The
// control plane uses it to prove two tables converged to the same state
// byte for byte (reconciliation tests, audit dumps); mutating the copies
// never touches the live table.
func (t *Table) Entries() []Entry {
	st := t.state.Load()
	entries := st.ordered()
	out := make([]Entry, len(entries))
	for i, e := range entries {
		lo, hi := append([]byte(nil), e.lo()...), append([]byte(nil), e.hi()...)
		out[i] = Entry{ID: e.ID, Priority: int(e.Priority), Lo: lo, Hi: hi, Action: e.Action}
		if st.kind == MatchTernary {
			out[i].Value, out[i].Mask, out[i].Lo, out[i].Hi = lo, hi, nil, nil
		}
	}
	return out
}

// Lookup matches the frame against the table and returns the action.
// matched reports whether an entry (vs the default action) fired. The
// hot path is lock-free — one atomic load of the current index
// generation — and allocates nothing for key widths up to 64 bytes, so
// concurrent lookups scale linearly with cores.
func (t *Table) Lookup(frame []byte) (act Action, matched bool) {
	st := t.state.Load()
	var kb [128]byte // key, then the ternary lane-masking scratch
	buf := kb[:]
	if 2*st.width > len(buf) {
		buf = make([]byte, 2*st.width)
	}
	key := buf[:st.width]
	fillKey(key, frame, st.key)
	hit, _ := st.find(key, buf[st.width:])
	if hit == nil {
		atomic.AddUint64(&t.misses, 1)
		return st.def, false
	}
	// Direct counters: hits and bytes share the entry's cache line, so the
	// second add is nearly free once the first has claimed the line.
	atomic.AddUint64(&hit.hits, 1)
	atomic.AddUint64(&hit.bytes, uint64(len(frame)))
	atomic.AddUint64(&t.hits, 1)
	return hit.Action, true
}

// find resolves one gathered key through the state's index — the single
// probe Lookup and LookupBatch share. It returns the winning entry (nil
// on a miss) and its row id in st.byID, or -1 for a ternary table, which
// resolves without one. scratch (len >= key width) is the ternary
// store's lane-masking buffer.
func (st *lookupState) find(key, scratch []byte) (*row, int32) {
	switch st.kind {
	case MatchTernary:
		return st.tstore.find(key, scratch[:len(key)]), -1
	case MatchRange:
		if row, ok := st.rangeIdx.Find(key); ok {
			return st.byID[row], int32(row)
		}
	}
	return nil, -1
}

// LookupOracle is the linear-scan reference for Lookup: it walks the
// sorted entry list first-match with no index, no counters, and no side
// effects. Differential tests assert the indexed Lookup, LookupBatch,
// and Explain never disagree with it on any table generation.
func (t *Table) LookupOracle(frame []byte) (act Action, matched bool) {
	st := t.state.Load()
	key := ExtractKey(frame, st.key)
	hit := st.findLinear(key)
	if hit == nil {
		return st.def, false
	}
	return hit.Action, true
}

// findLinear scans the state's entries without any index, returning the
// entry Lookup must resolve to.
func (st *lookupState) findLinear(key []byte) *row {
	switch st.kind {
	case MatchTernary:
		for _, e := range st.ordered() {
			if match.MaskedEqual(key, e.lo(), e.hi()) {
				return e
			}
		}
	case MatchRange:
		for _, e := range st.ordered() {
			if rangeMatch(key, e.lo(), e.hi()) {
				return e
			}
		}
	}
	return nil
}

func rangeMatch(key, lo, hi []byte) bool {
	for i := range key {
		if key[i] < lo[i] || key[i] > hi[i] {
			return false
		}
	}
	return true
}

// Stats reports table hit/miss counters. HitBytes totals the frame bytes
// of matched packets (missed packets are not byte-counted).
type Stats struct {
	Name     string `json:"name"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	HitBytes uint64 `json:"hit_bytes"`
}

// Stats returns a snapshot of the table's counters: Entries and HitBytes
// are of one generation.
func (t *Table) Stats() Stats {
	entries := t.state.Load().ordered()
	s := Stats{
		Name:    t.Name,
		Entries: len(entries),
		Hits:    atomic.LoadUint64(&t.hits),
		Misses:  atomic.LoadUint64(&t.misses),
	}
	for _, e := range entries {
		s.HitBytes += atomic.LoadUint64(&e.bytes)
	}
	return s
}

// EntryCounters is a snapshot of one entry's identity and direct
// counters, the P4 `direct_counter(packets_and_bytes)` equivalent.
type EntryCounters struct {
	ID       uint64
	Priority int
	Action   Action
	Hits     uint64
	Bytes    uint64
}

// EntrySnapshots returns a counter snapshot for every installed entry in
// current match order. It reads the lock-free lookup state, so it is safe
// to call at scrape time under full forwarding load.
func (t *Table) EntrySnapshots() []EntryCounters {
	entries := t.state.Load().ordered()
	out := make([]EntryCounters, len(entries))
	for i, e := range entries {
		out[i] = EntryCounters{
			ID:       e.ID,
			Priority: int(e.Priority),
			Action:   e.Action,
			Hits:     atomic.LoadUint64(&e.hits),
			Bytes:    atomic.LoadUint64(&e.bytes),
		}
	}
	return out
}
