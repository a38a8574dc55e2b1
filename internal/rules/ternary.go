package rules

import (
	"fmt"

	"p4guard/internal/packet"
)

// ValueMask is one ternary pattern over a single byte: a packet byte b
// matches when b&Mask == Value.
type ValueMask struct {
	Value byte
	Mask  byte
}

// RangeToMasks expands the inclusive byte range [lo,hi] into the minimal
// set of prefix value/mask pairs covering exactly that range.
func RangeToMasks(lo, hi byte) []ValueMask {
	if lo > hi {
		return nil
	}
	var out []ValueMask
	cur := int(lo)
	for cur <= int(hi) {
		// Largest aligned power-of-two block starting at cur that stays
		// within [cur, hi].
		size := 1
		for {
			next := size * 2
			if cur%next != 0 || cur+next-1 > int(hi) {
				break
			}
			size = next
		}
		mask := byte(0xff << log2(size))
		out = append(out, ValueMask{Value: byte(cur), Mask: mask})
		cur += size
	}
	return out
}

// log2 returns log₂(n) for power-of-two n in [1,256].
func log2(n int) uint {
	var k uint
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// TernaryEntry is one TCAM row over the rule set's key layout: the i-th
// Value/Mask byte applies to the i-th key offset.
type TernaryEntry struct {
	Priority int
	Value    []byte
	Mask     []byte
	Class    int
}

// Matches reports whether the key bytes satisfy the entry.
func (e *TernaryEntry) Matches(key []byte) bool {
	if len(key) != len(e.Value) {
		return false
	}
	for i, v := range e.Value {
		if key[i]&e.Mask[i] != v {
			return false
		}
	}
	return true
}

// ExtractKey builds the match key for a packet under the given offsets.
func ExtractKey(pkt *packet.Packet, offsets []int) []byte {
	key := make([]byte, len(offsets))
	for i, off := range offsets {
		key[i] = pkt.ByteAt(off)
	}
	return key
}

// keyPositions resolves a header offset to its place in a key layout
// without hashing it: learned layouts lie inside packet.HeaderWindow, which
// one array covers; an offset beyond the window is found by scanning the
// layout. A repeated offset resolves to its last place.
type keyPositions struct {
	offsets []int
	at      [packet.HeaderWindow]int // place + 1; 0 for an offset not in the layout
}

func newKeyPositions(offsets []int) *keyPositions {
	k := &keyPositions{offsets: offsets}
	for i, off := range offsets {
		if off >= 0 && off < len(k.at) {
			k.at[off] = i + 1
		}
	}
	return k
}

// of returns off's place in the layout, or -1.
func (k *keyPositions) of(off int) int {
	if uint(off) < uint(len(k.at)) {
		return k.at[off] - 1
	}
	for i := len(k.offsets) - 1; i >= 0; i-- {
		if k.offsets[i] == off {
			return i
		}
	}
	return -1
}

// outside is the error for a predicate on an offset the layout lacks.
func (k *keyPositions) outside(off int) error {
	return fmt.Errorf("rules: predicate offset %d not in key layout %v", off, k.offsets)
}

// CompileTernary expands every rule into TCAM entries via per-predicate
// prefix expansion and cross-product. The result preserves rule priority
// order (entries from one rule share its priority).
func (rs *RuleSet) CompileTernary() ([]TernaryEntry, error) {
	width := len(rs.Offsets)
	pos := newKeyPositions(rs.Offsets)
	var entries []TernaryEntry
	for _, r := range rs.Rules {
		// Start with a fully wildcard pattern.
		base := TernaryEntry{
			Priority: r.Priority,
			Value:    make([]byte, width),
			Mask:     make([]byte, width),
			Class:    r.Class,
		}
		partials := []TernaryEntry{base}
		for _, p := range r.Preds {
			idx := pos.of(p.Offset)
			if idx < 0 {
				return nil, pos.outside(p.Offset)
			}
			if p.Trivial() {
				continue
			}
			vms := RangeToMasks(p.Lo, p.Hi)
			next := make([]TernaryEntry, 0, len(partials)*len(vms))
			for _, part := range partials {
				for _, vm := range vms {
					e := TernaryEntry{
						Priority: part.Priority,
						Value:    append([]byte(nil), part.Value...),
						Mask:     append([]byte(nil), part.Mask...),
						Class:    part.Class,
					}
					e.Value[idx] = vm.Value
					e.Mask[idx] = vm.Mask
					next = append(next, e)
				}
			}
			partials = next
		}
		entries = append(entries, partials...)
	}
	return entries, nil
}

// RangeEntry is one range-match table row over the rule set's key layout:
// key byte i must lie in [Lo[i], Hi[i]].
type RangeEntry struct {
	Priority int
	Lo       []byte
	Hi       []byte
	Class    int
}

// RangeKeys compiles the rule set into packed range rows, the one form a
// program takes from here to a table's index: rule r's bounds on every
// key byte, lo then hi, at keys[2wr : 2w(r+1)] for a key of w bytes.
// Predicates repeated on one offset are intersected as Rule.Matches
// evaluates them. A rule whose intersection is empty keeps its row, dead
// (DeadRow), so that rows and rules number alike.
func (rs *RuleSet) RangeKeys() ([]byte, error) {
	pos := newKeyPositions(rs.Offsets)
	w := len(rs.Offsets)
	keys := make([]byte, 2*w*len(rs.Rules))
	for r := range rs.Rules {
		lo, hi := keys[2*w*r:][:w], keys[2*w*r+w:][:w]
		for i := range hi {
			hi[i] = 0xff
		}
		for _, p := range rs.Rules[r].Preds {
			idx := pos.of(p.Offset)
			if idx < 0 {
				return nil, pos.outside(p.Offset)
			}
			lo[idx] = max(lo[idx], p.Lo)
			hi[idx] = min(hi[idx], p.Hi)
		}
	}
	return keys, nil
}

// DeadRow reports whether a packed row, lo‖hi, admits no key: lo > hi on
// some byte. Range tables refuse such a row.
func DeadRow(key []byte) bool {
	w := len(key) / 2
	for i := 0; i < w; i++ {
		if key[i] > key[w+i] {
			return true
		}
	}
	return false
}

// RangeEntries is RangeKeys as entries without the dead rows — the form
// actually installed in the behavioural switch (P4 targets support range
// match keys directly; the TCAM prefix expansion in CompileTernary is used
// for hardware cost accounting). Each entry's Lo and Hi are capped views
// of the packed rows.
func (rs *RuleSet) RangeEntries() ([]RangeEntry, error) {
	keys, err := rs.RangeKeys()
	if err != nil {
		return nil, err
	}
	w := len(rs.Offsets)
	live := make([]RangeEntry, 0, len(rs.Rules))
	for r := range rs.Rules {
		if key := keys[2*w*r : 2*w*(r+1) : 2*w*(r+1)]; !DeadRow(key) {
			live = append(live, RangeEntry{Priority: rs.Rules[r].Priority, Lo: key[:w:w], Hi: key[w:], Class: rs.Rules[r].Class})
		}
	}
	return live, nil
}

// TCAMCost summarizes hardware cost of a compiled rule set.
type TCAMCost struct {
	Entries  int
	KeyBytes int
	// Bits is entries × key width × 2 (TCAM cells store value+mask).
	Bits int
}

// Cost compiles the set and returns its TCAM cost.
func (rs *RuleSet) Cost() (TCAMCost, error) {
	entries, err := rs.CompileTernary()
	if err != nil {
		return TCAMCost{}, err
	}
	kb := len(rs.Offsets)
	return TCAMCost{
		Entries:  len(entries),
		KeyBytes: kb,
		Bits:     len(entries) * kb * 8 * 2,
	}, nil
}

// ClassifyTernary evaluates the compiled entries against a packet: highest
// priority first, DefaultClass on miss. It exists to property-test that
// ternary expansion preserves rule-set semantics.
func ClassifyTernary(entries []TernaryEntry, defaultClass int, offsets []int, pkt *packet.Packet) int {
	key := ExtractKey(pkt, offsets)
	best := -1
	bestClass := defaultClass
	for i := range entries {
		if entries[i].Matches(key) && entries[i].Priority > best {
			best = entries[i].Priority
			bestClass = entries[i].Class
		}
	}
	return bestClass
}
