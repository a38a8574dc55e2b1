package match

import "p4guard/internal/packet"

// Explainability for the compiled matcher: the same decision Classify
// makes, reconstructed with full evidence — the winning row, the per-byte
// and per-bit comparison that made it win, and the higher-priority rows
// it beat (each annotated with the first byte that disqualified it).
//
// Explain never touches counters or any mutable state and always agrees
// with Classify: both read the same immutable KeyIndex, and the verdict
// field is computed by the index itself, not re-derived.

// BitsOfRange returns the ternary (value, mask) view of an inclusive
// byte range [lo, hi]: mask has a bit set for every bit position fixed
// across the whole range (the longest shared prefix), and value carries
// those fixed bits. A full range [0,255] yields mask 0 (fully wildcard);
// a point range lo==hi yields mask 0xff (fully exact). This is the
// granularity the TCAM expansion and the Stage-1 bit-level features
// share.
func BitsOfRange(lo, hi byte) (value, mask byte) {
	// Bits agree from the MSB down until the first position where lo and
	// hi differ; below that the range spans both values of every bit.
	diff := lo ^ hi
	mask = 0xff
	for diff != 0 {
		diff >>= 1
		mask <<= 1
	}
	return lo & mask, mask
}

// ByteExplain is the comparison of one key byte against one row.
type ByteExplain struct {
	// Pos is the key position; Offset the header byte offset it reads.
	Pos    int `json:"pos"`
	Offset int `json:"offset"`
	// Key is the packet's byte at that offset.
	Key byte `json:"key"`
	// Lo and Hi are the row's admitted range at this position.
	Lo byte `json:"lo"`
	Hi byte `json:"hi"`
	// Value and Mask are the ternary view of [Lo, Hi]: Mask marks the
	// bit positions the row fixes, Value their required values.
	Value byte `json:"value"`
	Mask  byte `json:"mask"`
	// MatchedBits marks the mask bits where the key agrees with Value —
	// the bit-expanded positions that matched, MSB first.
	MatchedBits byte `json:"matched_bits"`
	// InRange reports whether the key byte lies in [Lo, Hi].
	InRange bool `json:"in_range"`
}

// explainByte builds the comparison of one key byte against one row
// position.
func explainByte(pos, offset int, key, lo, hi byte) ByteExplain {
	value, mask := BitsOfRange(lo, hi)
	return ByteExplain{
		Pos: pos, Offset: offset, Key: key,
		Lo: lo, Hi: hi, Value: value, Mask: mask,
		MatchedBits: ^(key ^ value) & mask,
		InRange:     key >= lo && key <= hi,
	}
}

// RuleExplain annotates one rule row's comparison against the key.
type RuleExplain struct {
	// Row is the row index in priority order (0 is highest priority).
	Row int `json:"row"`
	// Priority is the rule's declared priority.
	Priority int `json:"priority"`
	// Class is the class the row would assign.
	Class int `json:"class"`
	// Matched reports whether every byte was in range.
	Matched bool `json:"matched"`
	// Bytes holds the per-byte comparisons. For losing candidates the
	// first entry with InRange == false is the disqualifying byte.
	Bytes []ByteExplain `json:"bytes"`
}

// Explanation is the full evidence for one classification decision.
type Explanation struct {
	// Key is the extracted match key (one byte per offset).
	Key []byte `json:"key"`
	// Offsets is the key layout the bytes were read from.
	Offsets []int `json:"offsets"`
	// Class and Matched are exactly Classify's return values.
	Class   int  `json:"class"`
	Matched bool `json:"matched"`
	// Winner is the winning row's comparison; nil on miss (the default
	// class applied).
	Winner *RuleExplain `json:"winner,omitempty"`
	// Beaten lists the higher-priority rows the winner beat (rows above
	// it that failed to match), capped at MaxBeaten; BeatenTotal is the
	// uncapped count.
	Beaten      []RuleExplain `json:"beaten,omitempty"`
	BeatenTotal int           `json:"beaten_total"`
}

// MaxBeaten caps how many losing higher-priority rows an explanation
// carries, keeping explain records bounded on tables with thousands of
// rows.
const MaxBeaten = 8

// explainRow builds a RuleExplain for row r of the compiled matcher.
func (m *Compiled) explainRow(r int, key []byte) RuleExplain {
	row := &m.rows[r]
	re := RuleExplain{
		Row:      r,
		Priority: row.Priority,
		Class:    row.Class,
		Matched:  true,
		Bytes:    make([]ByteExplain, len(key)),
	}
	for pos := range key {
		be := explainByte(pos, m.offsets[pos], key[pos], row.Lo[pos], row.Hi[pos])
		re.Bytes[pos] = be
		if !be.InRange {
			re.Matched = false
		}
	}
	return re
}

// ExplainKey explains the classification of an already-extracted key.
// The verdict fields (Class, Matched) are produced by the same KeyIndex
// lookup Classify uses, so they can never drift from the fast path.
func (m *Compiled) ExplainKey(key []byte) *Explanation {
	ex := &Explanation{
		Key:     append([]byte(nil), key...),
		Offsets: m.Offsets(),
	}
	row, ok := m.idx.Find(key)
	if !ok {
		ex.Class, ex.Matched = m.defaultClass, false
		// Every row lost; report the highest-priority few.
		ex.BeatenTotal = len(m.rows)
		for r := 0; r < len(m.rows) && len(ex.Beaten) < MaxBeaten; r++ {
			ex.Beaten = append(ex.Beaten, m.explainRow(r, key))
		}
		return ex
	}
	ex.Class, ex.Matched = m.rows[row].Class, true
	w := m.explainRow(row, key)
	ex.Winner = &w
	ex.BeatenTotal = row
	for r := 0; r < row && len(ex.Beaten) < MaxBeaten; r++ {
		ex.Beaten = append(ex.Beaten, m.explainRow(r, key))
	}
	return ex
}

// Explain explains the classification of one packet: key extraction,
// the winning row with per-byte/per-bit evidence, and the
// higher-priority rows it beat. Explain(pkt).Class always equals the
// class Classify(pkt) returns.
func (m *Compiled) Explain(pkt *packet.Packet) *Explanation {
	key := make([]byte, len(m.offsets))
	for i, off := range m.offsets {
		key[i] = pkt.ByteAt(off)
	}
	return m.ExplainKey(key)
}
