package p4rt

import (
	"fmt"
	"slices"

	"p4guard/internal/p4"
	"p4guard/internal/rules"
)

// FormatAction renders an action type for the wire.
func FormatAction(t p4.ActionType) string { return t.String() }

// ParseAction parses a wire action name.
func ParseAction(s string) (p4.ActionType, error) {
	if t, ok := actionType(s); ok {
		return t, nil
	}
	return 0, fmt.Errorf("p4rt: unknown action %q", s)
}

// actionType is ParseAction for the row encoder and the diff, which have
// no use for an error that quotes the name.
func actionType(s string) (p4.ActionType, bool) {
	switch s {
	case "allow":
		return p4.ActionAllow, true
	case "drop":
		return p4.ActionDrop, true
	case "digest":
		return p4.ActionDigest, true
	}
	return 0, false
}

// ToP4Entry converts a wire entry to a p4 table entry.
func (w WireEntry) ToP4Entry() (p4.Entry, error) {
	at, err := ParseAction(w.Action)
	if err != nil {
		return p4.Entry{}, err
	}
	return p4.Entry{Priority: w.Priority, Lo: w.Lo, Hi: w.Hi, Action: p4.Action{Type: at, Class: w.Class}}, nil
}

// deltaRow fills r with the wire entry's view for p4.DiffRows: a range
// row, no value or mask. An entry whose action has no p4 type has none.
// Field by field, as p4.Entry's: a composite literal is built aside and
// copied into the diff's heap-held view, a bulk write barrier a row while
// a collection is marking.
func (w *WireEntry) deltaRow(r *p4.DeltaRow) bool {
	at, ok := actionType(w.Action)
	r.Priority, r.Action = w.Priority, p4.Action{Type: at, Class: w.Class}
	r.Value, r.Mask, r.Lo, r.Hi = nil, nil, w.Lo, w.Hi
	return ok
}

// DeltaFromPrograms diffs two Program messages for the same key layout
// into a DeltaMsg. ok is false when no valid delta exists — layouts
// differ, an entry names an unknown action, the diff is ambiguous
// (duplicate entries), or surviving entries reordered — in which case
// the caller sends next wholesale. The diff is p4.ComputeDelta's, run on
// the wire entries where they lie; the rows the delta adds are next's.
func DeltaFromPrograms(prev, next Program) (DeltaMsg, bool) {
	if !slices.Equal(prev.Offsets, next.Offsets) {
		return DeltaMsg{}, false
	}
	d, ok := p4.DiffRows(prev.Entries, next.Entries, (*WireEntry).deltaRow)
	if !ok {
		return DeltaMsg{}, false
	}
	msg := DeltaMsg{Offsets: next.Offsets, DefaultAction: next.DefaultAction, DefaultClass: next.DefaultClass,
		BaseCount: d.BaseCount, BaseHash: d.BaseHash, Deletes: d.Deletes}
	if len(d.Moves) > 0 {
		msg.Moves = make([]WireDeltaMove, len(d.Moves))
		for i, m := range d.Moves {
			msg.Moves[i] = WireDeltaMove(m)
		}
	}
	if len(d.Adds) > 0 {
		msg.Adds = make([]WireDeltaAdd, len(d.Adds))
		for i, a := range d.Adds {
			msg.Adds[i] = WireDeltaAdd{Entry: next.Entries[a.Order], Order: a.Order}
		}
	}
	return msg, true
}

// ProgramFromRuleSet compiles a rule set into a Program message: one
// range-match entry per live rule of rules.RuleSet.RangeKeys, actions
// derived from each rule's class, with the given miss behaviour. (The
// detector table is a range table; TCAM prefix-expansion cost is accounted
// separately via rules.RuleSet.Cost.) The program copies the offsets, and
// its entries' Lo and Hi are views of the packed rows the compile made. A
// rule the wire cannot carry — a priority or class outside int32 — is
// refused here (ErrMalformed), before anything is sent.
func ProgramFromRuleSet(rs *rules.RuleSet, missAction p4.Action) (Program, error) {
	keys, err := rs.RangeKeys()
	if err != nil {
		return Program{}, fmt.Errorf("p4rt: compile: %w", err)
	}
	w := len(rs.Offsets)
	prog := Program{
		Offsets:       append([]int(nil), rs.Offsets...),
		DefaultAction: FormatAction(missAction.Type),
		DefaultClass:  missAction.Class,
		Entries:       make([]WireEntry, len(rs.Rules)),
	}
	n := 0
	for r := range rs.Rules {
		key := keys[2*w*r : 2*w*(r+1) : 2*w*(r+1)]
		if rules.DeadRow(key) {
			continue
		}
		rule, e := &rs.Rules[r], &prog.Entries[n]
		e.Priority, e.Lo, e.Hi, e.Action, e.Class = rule.Priority, key[:w:w], key[w:], FormatAction(p4.ActionAllow), rule.Class
		if rules.ActionForClass(rule.Class) == rules.ActionDrop {
			e.Action = FormatAction(p4.ActionDrop)
		}
		if !e.fits(w) {
			return Program{}, fmt.Errorf("%w: rule %d (priority %d, class %d) is not a %d-byte row of 32-bit numbers",
				ErrMalformed, n, rule.Priority, rule.Class, w)
		}
		n++
	}
	prog.Entries = prog.Entries[:n]
	return prog, nil
}
