package p4

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"p4guard/internal/match"
)

// Entry is one table row. Which match fields are meaningful depends on the
// table's kind:
//
//   - exact:   Value only (full key width)
//   - ternary: Value and Mask (full key width), Priority breaks overlaps
//   - lpm:     Value and PrefixLen (bits); longest prefix wins
//   - range:   Lo and Hi per key byte (inclusive), Priority breaks overlaps
type Entry struct {
	ID uint64
	// ord is the entry's immutable canonical-order key: priority ties
	// resolve by ascending ord, reproducing wire/insertion order through
	// per-entry data the lock-free index can read on any generation.
	// Replace assigns gapped wire-order ords, Apply bisects the gaps for
	// newcomers, and reactive Inserts order in a band above every
	// programmed ord.
	ord       uint64
	Priority  int
	Value     []byte
	Mask      []byte
	PrefixLen int
	Lo        []byte
	Hi        []byte
	Action    Action

	// P4-style direct counters, accessed atomically. Entry pointers are
	// shared across lookup-state generations, so the counters survive
	// reindexing and delta application (though not a full Replace, which
	// allocates new entries).
	hits  uint64
	bytes uint64
}

// Table is one match–action table. Mutations (insert/delete/define/
// replace/apply) are serialized by mu and publish an immutable
// lookupState snapshot; the lookup hot path reads the snapshot through
// one atomic load and touches no lock at all. Hit/miss counters are
// atomics shared across snapshots.
//
// Entries live in two pools: prog is the canonical programmed list in
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
	prog     []*Entry // canonical programmed entries, wire order
	progHash uint64   // order-independent signature of prog (see HashEntry)
	inserted []*Entry // reactive Inserts, chronological
	state    atomic.Pointer[lookupState]
	hits     uint64 // accessed atomically
	misses   uint64 // accessed atomically
}

// lookupState is one immutable generation of the table's lookup index.
// Every mutation builds a fresh state (entry slice included: lookups
// still read the old one), so concurrent lookups on an old generation
// never observe a partial update. Entry pointers are shared across
// generations, keeping per-entry hit counters stable over reprogramming.
type lookupState struct {
	kind    MatchKind
	key     []FieldSpec
	width   int
	def     Action
	entries []*Entry // match order
	// byID holds the entries by the row id find resolves a key to, for
	// the kinds that have one: an LPM row's id is its place in entries, a
	// range row's the id rangeIdx gave it — its place in entries when the
	// index was compiled, its arrival order after that. A derived
	// generation appends its newcomers to the array the previous
	// generations still read, past their lengths; the id of a row that left
	// stays behind, named by nothing in this generation's index, until the
	// next compile (see derive).
	byID     []*Entry
	exact    map[string]*Entry
	tstore   *ternaryStore   // partitioned hash-indexed ternary index
	rangeIdx *match.KeyIndex // range-match index (row id i = byID[i])
	// lpmMasks[i] is entries[i].PrefixLen expanded to a byte mask, so find
	// tests prefixes with 64-bit lane compares (match.MaskedEqual) instead
	// of the bit-fiddling prefixMatch loop the oracle keeps.
	lpmMasks [][]byte
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

// validate checks an entry against the table's kind and key width.
func (t *Table) validate(e *Entry, w int) error {
	switch t.Kind {
	case MatchExact:
		if len(e.Value) != w {
			return fmt.Errorf("exact value width %d != key %d: %w", len(e.Value), w, ErrBadEntry)
		}
	case MatchTernary:
		if len(e.Value) != w || len(e.Mask) != w {
			return fmt.Errorf("ternary value/mask widths %d/%d != key %d: %w",
				len(e.Value), len(e.Mask), w, ErrBadEntry)
		}
		for i := range e.Value {
			if e.Value[i]&^e.Mask[i] != 0 {
				return fmt.Errorf("ternary value bit outside mask at byte %d: %w", i, ErrBadEntry)
			}
		}
	case MatchLPM:
		if len(e.Value) != w {
			return fmt.Errorf("lpm value width %d != key %d: %w", len(e.Value), w, ErrBadEntry)
		}
		if e.PrefixLen < 0 || e.PrefixLen > w*8 {
			return fmt.Errorf("lpm prefix length %d out of [0,%d]: %w", e.PrefixLen, w*8, ErrBadEntry)
		}
	case MatchRange:
		if len(e.Lo) != w || len(e.Hi) != w {
			return fmt.Errorf("range lo/hi widths %d/%d != key %d: %w", len(e.Lo), len(e.Hi), w, ErrBadEntry)
		}
		for i := range e.Lo {
			if e.Lo[i] > e.Hi[i] {
				return fmt.Errorf("range lo>hi at byte %d: %w", i, ErrBadEntry)
			}
		}
	default:
		return fmt.Errorf("unknown match kind %v: %w", t.Kind, ErrBadEntry)
	}
	return nil
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
	if err := t.validate(&e, t.width()); err != nil {
		return 0, fmt.Errorf("table %s: %w", t.Name, err)
	}
	if t.MaxEntries > 0 && t.entryCount() >= t.MaxEntries {
		return 0, fmt.Errorf("table %s (%d entries): %w", t.Name, t.entryCount(), ErrTableFull)
	}
	t.nextID++
	e.ID = t.nextID
	e.ord = insertedOrdBase + e.ID // IDs are monotonic: insertion order
	stored := e
	t.inserted = append(t.inserted, &stored)
	t.derive(nil, []*Entry{&stored})
	return stored.ID, nil
}

// Define sets the table's schema: key layout and default action. When
// the new layout extracts the same key bytes as the current one, the
// installed entries and their compiled index are republished under the
// new default (a default-action change compiles nothing); a layout
// change invalidates every entry and clears the table.
func (t *Table) Define(key []FieldSpec, def Action) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	same := sameKeyLayout(t.Key, key)
	t.Key, t.DefaultAction = key, def
	if !same {
		t.prog, t.inserted, t.progHash = nil, nil, 0
		t.reindex()
		return nil
	}
	st := *t.state.Load()
	st.key, st.def = key, def
	t.state.Store(&st)
	return nil
}

// KeySpecs returns a copy of the table's current key layout.
func (t *Table) KeySpecs() []FieldSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FieldSpec(nil), t.Key...)
}

// sameKeyLayout reports whether two key layouts extract identical key
// bytes (names are cosmetic; offset/width sequences decide validity).
func sameKeyLayout(a, b []FieldSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || a[i].Width != b[i].Width {
			return false
		}
	}
	return true
}

// Replace atomically swaps the table's full canonical entry list under
// the current schema, rebuilding the lookup index once. Reactive
// Inserts are dropped (the swap defines the table's entire contents);
// use Apply for an incremental edit that preserves them. On error the
// table is unchanged.
func (t *Table) Replace(entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replaceLocked(entries)
}

func (t *Table) replaceLocked(entries []Entry) error {
	w := t.width()
	if t.MaxEntries > 0 && len(entries) > t.MaxEntries {
		return fmt.Errorf("table %s (%d entries): %w", t.Name, len(entries), ErrTableFull)
	}
	for i := range entries {
		if err := t.validate(&entries[i], w); err != nil {
			return fmt.Errorf("table %s: entry %d: %w", t.Name, i, err)
		}
	}
	t.prog = make([]*Entry, len(entries))
	t.progHash = 0
	for i := range entries {
		e := entries[i]
		t.nextID++
		e.ID = t.nextID
		e.ord = uint64(i+1) * progOrdStride
		t.prog[i] = &e
		t.progHash ^= HashEntry(&e)
	}
	t.inserted = nil
	t.reindex()
	return nil
}

// Program atomically replaces the table's key layout, default action, and
// entry list, rebuilding the lookup index once and publishing it in one
// store: no lookup ever sees the new default without the new entries,
// which a Define followed by a Replace cannot promise. On error the
// table — schema, default, entries — is unchanged.
func (t *Table) Program(key []FieldSpec, def Action, entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	savedKey, savedDef := t.Key, t.DefaultAction
	t.Key, t.DefaultAction = key, def
	if err := t.replaceLocked(entries); err != nil {
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

// reindex sorts a freshly merged entry slice for the table's kind,
// rebuilds the lookup index, and publishes the new state. Callers must
// hold t.mu. The previous generation's slice is never mutated (it is
// still being read lock-free); sorting happens on the merged copy.
func (t *Table) reindex() {
	merged := make([]*Entry, 0, t.entryCount())
	merged = append(merged, t.prog...)
	merged = append(merged, t.inserted...)
	st := &lookupState{
		kind:  t.Kind,
		key:   t.Key,
		width: t.width(),
		def:   t.DefaultAction,
	}
	switch t.Kind {
	case MatchExact:
		st.exact = make(map[string]*Entry, len(merged))
		// Later entries overwrite earlier duplicates, matching the
		// behaviour of sequential Inserts.
		for _, e := range merged {
			st.exact[string(e.Value)] = e
		}
	case MatchTernary:
		sortByPriority(merged)
		st.tstore = buildTernaryStore(merged)
	case MatchRange:
		sortByPriority(merged)
		st.rangeIdx, st.byID = buildRangeIndex(st.width, merged), merged
	case MatchLPM:
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].PrefixLen != merged[j].PrefixLen {
				return merged[i].PrefixLen > merged[j].PrefixLen
			}
			return merged[i].ord < merged[j].ord
		})
		st.lpmMasks = make([][]byte, len(merged))
		for i, e := range merged {
			st.lpmMasks[i] = prefixMask(st.width, e.PrefixLen)
		}
		st.byID = merged
	}
	st.entries = merged
	t.state.Store(st)
}

// sortByPriority orders entries by descending priority, breaking ties
// by ascending canonical-order key — exactly the stable wire/insertion
// order the table has always used, expressed through an immutable
// per-entry field so the ternary store can resolve ties without
// knowing an entry's slice position.
func sortByPriority(entries []*Entry) {
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
func beats(e, f *Entry) bool {
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
func rankOf(entries []*Entry, e *Entry) int {
	return sort.Search(len(entries), func(i int) bool { return !beats(entries[i], e) })
}

// buildRangeIndex compiles the priority-sorted range entries into the
// shared index from internal/match — the same engine the offline rule
// set classifies with, so table lookups and rule-set classification
// cannot drift apart. An empty table has the nil (empty) index.
func buildRangeIndex(width int, entries []*Entry) *match.KeyIndex {
	if len(entries) == 0 {
		return nil
	}
	rows := make([]match.RangeRow, len(entries))
	for i, e := range entries {
		rows[i] = match.RangeRow{Lo: e.Lo, Hi: e.Hi}
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
// Ternary and range tables build the generation from the previous one:
// the sorted entry list is spliced, the ternary store replaces the touched
// partitions, and a range table edits its index (match.KeyIndex.Edit: a
// point row that joins takes the next id and one slot of the hash, one
// that leaves costs a copy of the hash; nothing a previous generation
// reads changes) and appends the newcomers to byID in place. What the
// index declines — a range row on either side, a key held twice, an
// unpackable width — is compiled by reindex, and so is a generation in
// which the ids of departed rows would outnumber the rows: byID pins a
// departed entry for as long as the chain of generations runs, and the
// compile is what ends the chain.
func (t *Table) derive(rm, add []*Entry) {
	st := *t.state.Load()
	st.def = t.DefaultAction
	slices.SortFunc(add, func(a, b *Entry) int {
		if beats(a, b) {
			return -1
		}
		return 1
	})
	switch t.Kind {
	case MatchTernary:
		st.tstore = st.tstore.edit(rm, add)
	case MatchRange:
		ids, rows := len(st.byID)+len(add), len(st.entries)-len(rm)+len(add)
		if ids-rows > rows || !st.editRange(rm, add) {
			t.reindex()
			return
		}
	default:
		t.reindex()
		return
	}
	st.entries = spliceSorted(st.entries, rm, add)
	t.state.Store(&st)
}

// editRange moves st's index and byID to the generation without rm and
// with add (in match order); false when the index declines the edit.
func (st *lookupState) editRange(rm, add []*Entry) bool {
	// An install or a delete is one row: it stays on the stack.
	rows, above := make([]match.RangeRow, 0, 1), make([]int, 0, 1)
	if n := len(rm) + len(add); n > 1 {
		rows, above = make([]match.RangeRow, 0, n), make([]int, 0, len(add))
	}
	for _, e := range rm {
		rows = append(rows, match.RangeRow{Lo: e.Lo, Hi: e.Hi})
	}
	for _, e := range add {
		rows = append(rows, match.RangeRow{Lo: e.Lo, Hi: e.Hi})
		// Range rows sit in the index in match order: the ones ahead of e
		// are a prefix of them.
		above = append(above, sort.Search(st.rangeIdx.RangeRows(), func(j int) bool {
			return beats(e, st.byID[st.rangeIdx.RangeID(j)])
		}))
	}
	idx := st.rangeIdx.Edit(rows[:len(rm)], rows[len(rm):], above)
	if idx == nil {
		return false
	}
	st.rangeIdx, st.byID = idx, append(st.byID, add...)
	return true
}

// spliceSorted returns the match-ordered list prev without the entries
// of rm and with those of add (itself in match order). Every place is
// binary-searched — (priority, ord) is unique — and what lies between
// two places is copied as one run, so the cost is the copy plus
// O(edits · log n) compares.
func spliceSorted(prev, rm, add []*Entry) []*Entry {
	cuts := make([]int, 0, 2) // ranks of the removed, then the end of prev
	for _, e := range rm {
		cuts = append(cuts, rankOf(prev, e))
	}
	slices.Sort(cuts)
	cuts = append(cuts, len(prev))
	out := make([]*Entry, 0, len(prev)-len(rm)+len(add))
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
			next := make([]*Entry, 0, len(t.prog)-1)
			next = append(next, t.prog[:i]...)
			next = append(next, t.prog[i+1:]...)
			t.prog = next
			t.progHash ^= HashEntry(e)
			t.derive([]*Entry{e}, nil)
			return nil
		}
	}
	for i, e := range t.inserted {
		if e.ID == id {
			next := make([]*Entry, 0, len(t.inserted)-1)
			next = append(next, t.inserted[:i]...)
			next = append(next, t.inserted[i+1:]...)
			t.inserted = next
			t.derive([]*Entry{e}, nil)
			return nil
		}
	}
	return fmt.Errorf("table %s: entry %d: %w", t.Name, id, ErrBadEntry)
}

// Clear removes every entry.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prog, t.inserted, t.progHash = nil, nil, 0
	t.reindex()
}

// Len returns the entry count.
func (t *Table) Len() int {
	return len(t.state.Load().entries)
}

// Entries returns a deep copy of the installed entries in the current
// lookup generation's (priority-sorted) order, counters excluded. The
// control plane uses it to prove two tables converged to the same state
// byte for byte (reconciliation tests, audit dumps); mutating the copies
// never touches the live table.
func (t *Table) Entries() []Entry {
	st := t.state.Load()
	out := make([]Entry, len(st.entries))
	for i, e := range st.entries {
		out[i] = Entry{
			ID:        e.ID,
			Priority:  e.Priority,
			Value:     append([]byte(nil), e.Value...),
			Mask:      append([]byte(nil), e.Mask...),
			PrefixLen: e.PrefixLen,
			Lo:        append([]byte(nil), e.Lo...),
			Hi:        append([]byte(nil), e.Hi...),
			Action:    e.Action,
		}
	}
	return out
}

// ProgramEntries returns a deep copy of the canonical programmed list in
// wire order (reactive Inserts excluded) — the base a Delta addresses.
func (t *Table) ProgramEntries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, len(t.prog))
	for i, e := range t.prog {
		out[i] = Entry{
			ID:        e.ID,
			Priority:  e.Priority,
			Value:     append([]byte(nil), e.Value...),
			Mask:      append([]byte(nil), e.Mask...),
			PrefixLen: e.PrefixLen,
			Lo:        append([]byte(nil), e.Lo...),
			Hi:        append([]byte(nil), e.Hi...),
			Action:    e.Action,
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
// on a miss) and its row id in st.byID, or -1 for the kinds that
// resolve without one. scratch (len >= key width) is the ternary
// store's lane-masking buffer. LPM entries are sorted by descending
// prefix length, so the first lane-compare hit is the longest prefix.
func (st *lookupState) find(key, scratch []byte) (*Entry, int32) {
	switch st.kind {
	case MatchExact:
		return st.exact[string(key)], -1
	case MatchTernary:
		return st.tstore.find(key, scratch[:len(key)]), -1
	case MatchLPM:
		for i, e := range st.entries {
			if match.MaskedEqual(key, e.Value, st.lpmMasks[i]) {
				return e, int32(i)
			}
		}
	case MatchRange:
		if row, ok := st.rangeIdx.Find(key); ok {
			return st.byID[row], int32(row)
		}
	}
	return nil, -1
}

// LookupOracle is the linear-scan reference for Lookup: it walks the
// sorted entry list first-match (last-match for exact, mirroring the
// map's later-duplicate-wins) with no index, no counters, and no side
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
func (st *lookupState) findLinear(key []byte) *Entry {
	var hit *Entry
	switch st.kind {
	case MatchExact:
		for _, e := range st.entries {
			if string(e.Value) == string(key) {
				hit = e // later duplicates win, as in the exact map
			}
		}
	case MatchTernary:
		for _, e := range st.entries {
			if match.MaskedEqual(key, e.Value, e.Mask) {
				return e
			}
		}
	case MatchLPM:
		for _, e := range st.entries {
			if prefixMatch(key, e.Value, e.PrefixLen) {
				return e
			}
		}
	case MatchRange:
		for _, e := range st.entries {
			if rangeMatch(key, e.Lo, e.Hi) {
				return e
			}
		}
	}
	return hit
}

// prefixMask expands a prefix length in bits to a width-byte mask.
func prefixMask(width, prefixLen int) []byte {
	m := make([]byte, width)
	full := prefixLen / 8
	for i := 0; i < full && i < width; i++ {
		m[i] = 0xff
	}
	if rem := prefixLen % 8; rem > 0 && full < width {
		m[full] = byte(0xff << (8 - rem))
	}
	return m
}

func prefixMatch(key, value []byte, prefixLen int) bool {
	full := prefixLen / 8
	for i := 0; i < full; i++ {
		if key[i] != value[i] {
			return false
		}
	}
	if rem := prefixLen % 8; rem > 0 {
		mask := byte(0xff << (8 - rem))
		if key[full]&mask != value[full]&mask {
			return false
		}
	}
	return true
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
	entries := t.state.Load().entries
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
	entries := t.state.Load().entries
	out := make([]EntryCounters, len(entries))
	for i, e := range entries {
		out[i] = EntryCounters{
			ID:       e.ID,
			Priority: e.Priority,
			Action:   e.Action,
			Hits:     atomic.LoadUint64(&e.hits),
			Bytes:    atomic.LoadUint64(&e.bytes),
		}
	}
	return out
}

// EntryHits returns the hit counter for one entry.
func (t *Table) EntryHits(id uint64) (uint64, error) {
	for _, e := range t.state.Load().entries {
		if e.ID == id {
			return atomic.LoadUint64(&e.hits), nil
		}
	}
	return 0, fmt.Errorf("table %s: entry %d: %w", t.Name, id, ErrBadEntry)
}
