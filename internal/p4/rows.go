package p4

// row is what a table stores of one entry, and the only form it stores: 80
// bytes and a key — lo‖hi on a range table, value‖mask on a ternary one —
// cut from the slab of the program it arrived in or, for a reactive install,
// allocated by the table; no caller can reach either. The names are Entry's.
//
// ord is the immutable canonical-order key: priority ties resolve by
// ascending ord, reproducing wire/insertion order on any generation. A full
// swap assigns gapped ords, Apply bisects the gaps, Inserts order above
// them all. hits and bytes are the P4 direct counters, accessed atomically,
// and kept across generations, which share row pointers.
type row struct {
	ID, ord, hits, bytes uint64
	key                  []byte
	Priority             int32
	Action               Action
}

// lo and hi are the halves of the key: Value and Mask on a ternary table.
func (e *row) lo() []byte { return e.key[:len(e.key)/2] }
func (e *row) hi() []byte { return e.key[len(e.key)/2:] }

// Rows is a program in the form a table stores, built by whoever decodes or
// compiles one and adopted by Table.Program. The zero value is empty.
type Rows struct {
	rows    []row
	slab    []byte // the key slab rows are being cut from, used bytes of it taken
	used    int
	keyRoom int // the most bytes a key slab may be made with (Grow)
	// odd is the first row added that no row can hold and no table accepts
	// (checkRow): its place, its numbers, where lo ends in its key.
	odd *struct{ at, priority, split int }
}

// Grow makes room for exactly n more rows whose keys come to at most
// keyBytes. The key slab is made by the first row that needs it, for its
// keys times the rows there is room for and never past keyBytes: a decoder
// passes what the bytes it has yet to read could hold, whatever they claim.
func (r *Rows) Grow(n, keyBytes int) {
	if cap(r.rows)-len(r.rows) < n {
		r.rows = append(make([]row, 0, len(r.rows)+n), r.rows...)
	}
	r.keyRoom = keyBytes
}

// Add appends one row, copying lo and hi (a ternary row's value and mask)
// into the program's key slab: the buffers are the caller's again when Add
// returns. Table.Program validates every row before it publishes any.
func (r *Rows) Add(priority int, lo, hi []byte, action Action) {
	n, need := len(r.rows), len(lo)+len(hi)
	if r.odd == nil && (len(lo) != len(hi) || int(int32(priority)) != priority) {
		r.odd = &struct{ at, priority, split int }{n, priority, len(lo)}
	}
	if need > len(r.slab)-r.used {
		r.slab, r.used = make([]byte, max(need, min(need*max(cap(r.rows)-n, 1), r.keyRoom))), 0
	}
	key := r.slab[r.used : r.used+need : r.used+need]
	r.used += need
	copy(key[copy(key, lo):], hi)
	// Written where it lies: a row built aside costs a copy and a barrier.
	if n == cap(r.rows) {
		r.rows = append(r.rows, row{})
	}
	r.rows = r.rows[:n+1]
	e := &r.rows[n]
	e.key, e.Priority, e.Action = key, int32(priority), action
}

// addEntry adds e as t's kind reads it: a ternary table, Value and Mask.
func (r *Rows) addEntry(t *Table, e *Entry) {
	lo, hi := e.Lo, e.Hi
	if t.Kind == MatchTernary {
		lo, hi = e.Value, e.Mask
	}
	r.Add(e.Priority, lo, hi, e.Action)
}
