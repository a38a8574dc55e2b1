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

// Matches reports whether b satisfies the pattern.
func (vm ValueMask) Matches(b byte) bool { return b&vm.Mask == vm.Value }

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

// CompileTernary expands every rule into TCAM entries via per-predicate
// prefix expansion and cross-product. The result preserves rule priority
// order (entries from one rule share its priority).
func (rs *RuleSet) CompileTernary() ([]TernaryEntry, error) {
	width := len(rs.Offsets)
	pos := make(map[int]int, width) // offset -> key index
	for i, off := range rs.Offsets {
		pos[off] = i
	}
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
			idx, ok := pos[p.Offset]
			if !ok {
				return nil, fmt.Errorf("rules: predicate offset %d not in key layout %v", p.Offset, rs.Offsets)
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

// RangeEntries compiles the rule set into range-match rows, one per rule
// — the form actually installed in the behavioural switch (P4 targets
// support range match keys directly; the TCAM prefix expansion in
// CompileTernary is used for hardware cost accounting). Predicates
// repeated on one offset are intersected, as Rule.Matches evaluates
// them; a rule whose intersection is empty matches nothing and gets no
// row (a range table refuses lo > hi). The rows' Lo and Hi share one
// backing array, each capped to its own bytes.
func (rs *RuleSet) RangeEntries() ([]RangeEntry, error) {
	pos := make(map[int]int, len(rs.Offsets))
	for i, off := range rs.Offsets {
		pos[off] = i
	}
	w := len(rs.Offsets)
	out := make([]RangeEntry, 0, len(rs.Rules))
	buf := make([]byte, 2*w*len(rs.Rules))
rules:
	for _, r := range rs.Rules {
		lo, hi := buf[:w:w], buf[w:2*w:2*w]
		buf = buf[2*w:]
		for i := range hi {
			hi[i] = 0xff
		}
		for _, p := range r.Preds {
			idx, ok := pos[p.Offset]
			if !ok {
				return nil, fmt.Errorf("rules: predicate offset %d not in key layout %v", p.Offset, rs.Offsets)
			}
			lo[idx] = max(lo[idx], p.Lo)
			hi[idx] = min(hi[idx], p.Hi)
		}
		for i := range lo {
			if lo[i] > hi[i] {
				continue rules
			}
		}
		out = append(out, RangeEntry{Priority: r.Priority, Lo: lo, Hi: hi, Class: r.Class})
	}
	return out, nil
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
