package p4

import (
	"p4guard/internal/match"
	"p4guard/internal/packet"
)

// Explainability for the behavioural data plane: Table.Explain
// reconstructs one lookup with full evidence — the winning entry, the
// per-byte value/mask comparison that made it win, and the
// higher-priority entries it beat — and Pipeline.Explain runs a packet
// through the staged pipeline the same way RunTables does, collecting
// one table explanation per stage.
//
// Explain is side-effect-free: it never bumps hit/miss or direct
// counters and never queues digests, so it can be called on live
// traffic (sampled or on demand) without distorting the accounting the
// telemetry layer exports. Winner selection is Lookup's own index probe,
// so Explain and Lookup can never disagree on the verdict.

// EntryByteExplain compares one key byte against one entry.
type EntryByteExplain struct {
	// Pos is the key byte position; Field/Offset identify the header
	// byte it was extracted from.
	Pos    int    `json:"pos"`
	Field  string `json:"field"`
	Offset int    `json:"offset"`
	// Key is the packet's byte at that position.
	Key byte `json:"key"`
	// Value and Mask are the entry's ternary view at this byte: for
	// ternary entries they are the stored value/mask, for range entries
	// the fixed-prefix bits shared across [Lo, Hi].
	Value byte `json:"value"`
	Mask  byte `json:"mask"`
	// MatchedBits marks the mask bits where the key agrees with Value
	// (MSB first) — the bit-expanded positions that matched.
	MatchedBits byte `json:"matched_bits"`
	// Lo and Hi bound the admitted range (value..value for
	// ternary-on-full-mask bytes; only meaningful as a range for range
	// entries).
	Lo byte `json:"lo"`
	Hi byte `json:"hi"`
	// Matched reports whether this byte admitted the key.
	Matched bool `json:"matched"`
}

// EntryExplain annotates one entry's comparison against the key.
type EntryExplain struct {
	ID       uint64 `json:"id"`
	Priority int    `json:"priority"`
	// MatchOrder is the entry's position in the table's internal match
	// order (0 first).
	MatchOrder int    `json:"match_order"`
	Action     string `json:"action"`
	Class      int    `json:"class"`
	// Matched reports whether every byte admitted the key.
	Matched bool `json:"matched"`
	// Bytes holds per-byte comparisons; for a losing entry the first
	// one with Matched == false is the disqualifying byte.
	Bytes []EntryByteExplain `json:"bytes"`
}

// TableExplain is the full evidence for one table lookup.
type TableExplain struct {
	Table string    `json:"table"`
	Kind  MatchKind `json:"-"`
	// KindName is Kind rendered for JSON consumers.
	KindName string `json:"kind"`
	// Key is the extracted match key.
	Key []byte `json:"key"`
	// Winner is the entry Lookup would fire; nil when the default
	// action applies.
	Winner *EntryExplain `json:"winner,omitempty"`
	// Beaten lists higher-match-order entries the winner beat (each
	// failed to match), capped at match.MaxBeaten; BeatenTotal is the
	// uncapped count.
	Beaten      []EntryExplain `json:"beaten,omitempty"`
	BeatenTotal int            `json:"beaten_total"`
	// Action is the action the lookup resolves to (the winner's, or the
	// table default); Matched mirrors Lookup's second return.
	Action  Action `json:"-"`
	Matched bool   `json:"matched"`
	// ActionName and Class render Action for JSON consumers.
	ActionName string `json:"action"`
	Class      int    `json:"class"`
	// DefaultUsed reports that the table's default action applied.
	DefaultUsed bool `json:"default_used"`
}

// explainEntryBytes builds the per-byte comparison of key against e for
// the given match kind.
func explainEntryBytes(kind MatchKind, key []byte, specs []FieldSpec, e *row) ([]EntryByteExplain, bool) {
	out := make([]EntryByteExplain, len(key))
	all := true
	pos := 0
	for _, s := range specs {
		for i := 0; i < s.Width && pos < len(key); i++ {
			k := key[pos]
			var value, mask, lo, hi byte
			switch kind {
			case MatchTernary:
				value, mask = e.lo()[pos], e.hi()[pos]
				lo, hi = value, value|^mask
			case MatchRange:
				lo, hi = e.lo()[pos], e.hi()[pos]
				value, mask = match.BitsOfRange(lo, hi)
			}
			matched := k >= lo && k <= hi
			if kind != MatchRange {
				matched = k&mask == value
			}
			out[pos] = EntryByteExplain{
				Pos: pos, Field: s.Name, Offset: s.Offset + i,
				Key: k, Value: value, Mask: mask,
				MatchedBits: ^(k ^ value) & mask,
				Lo:          lo, Hi: hi,
				Matched: matched,
			}
			if !matched {
				all = false
			}
			pos++
		}
	}
	return out, all
}

// explainEntry builds an EntryExplain for entry e at match order mo.
func explainEntry(st *lookupState, key []byte, e *row, mo int) EntryExplain {
	bytes, all := explainEntryBytes(st.kind, key, st.key, e)
	return EntryExplain{
		ID: e.ID, Priority: int(e.Priority), MatchOrder: mo,
		Action: e.Action.Type.String(), Class: e.Action.Class,
		Matched: all, Bytes: bytes,
	}
}

// Explain reconstructs the lookup of frame with full evidence and no
// side effects. Explain(frame).Action and .Matched always equal what
// Lookup(frame) returns for the same table generation: the winner comes
// from the probe Lookup uses (find). Its match order is its rank in the
// ordered list, since the index names a row by id, not by place.
func (t *Table) Explain(frame []byte) TableExplain {
	st := t.state.Load()
	entries := st.ordered()
	key := ExtractKey(frame, st.key)
	ex := TableExplain{
		Table: t.Name, Kind: st.kind, KindName: st.kind.String(),
		Key: key,
	}
	var scratch []byte // the ternary store's lane-masking buffer
	if st.kind == MatchTernary {
		scratch = make([]byte, len(key))
	}
	// Entries ahead of the winner in match order — all of them on a miss —
	// lost by failing to match.
	hit, _ := st.find(key, scratch)
	if hit == nil {
		ex.Action, ex.DefaultUsed, ex.BeatenTotal = st.def, true, len(entries)
	} else {
		ex.Action, ex.Matched, ex.BeatenTotal = hit.Action, true, rankOf(entries, hit)
		w := explainEntry(st, key, hit, ex.BeatenTotal)
		ex.Winner = &w
	}
	if n := min(ex.BeatenTotal, match.MaxBeaten); n > 0 {
		ex.Beaten = make([]EntryExplain, n)
		for i := range ex.Beaten {
			ex.Beaten[i] = explainEntry(st, key, entries[i], i)
		}
	}
	ex.ActionName = ex.Action.Type.String()
	ex.Class = ex.Action.Class
	return ex
}

// PacketExplain is the pipeline-level explanation of one packet: the
// verdict RunTables would return plus one TableExplain per table the
// packet traversed (stages after a terminal allow/drop are not
// consulted, mirroring the forwarding path).
type PacketExplain struct {
	Verdict Verdict        `json:"verdict"`
	Tables  []TableExplain `json:"tables"`
}

// Explain runs the packet through the pipeline's current table snapshot
// exactly as Process does, but side-effect-free: no counters move and
// ActionDigest marks the verdict without enqueueing a digest. The
// control flow mirrors RunTables statement for statement, so
// Explain(pkt).Verdict equals Process(pkt)'s verdict for the same table
// generation.
func (p *Pipeline) Explain(pkt *packet.Packet) PacketExplain {
	ex := PacketExplain{Verdict: Verdict{Allowed: true}}
	for _, t := range p.TableSnapshot() {
		te := t.Explain(pkt.Bytes)
		ex.Tables = append(ex.Tables, te)
		ex.Verdict.Matched = ex.Verdict.Matched || te.Matched
		switch te.Action.Type {
		case ActionAllow:
			ex.Verdict.Allowed = true
			ex.Verdict.Class = te.Action.Class
			return ex
		case ActionDrop:
			ex.Verdict.Allowed = false
			ex.Verdict.Class = te.Action.Class
			return ex
		case ActionDigest:
			ex.Verdict.Digested = true
		case ActionSetClass:
			ex.Verdict.Class = te.Action.Class
		case ActionNop:
		}
	}
	return ex
}
