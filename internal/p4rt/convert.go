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
// row, no value, mask or prefix length. An entry whose action has no p4
// type has none.
func (w *WireEntry) deltaRow(r *p4.DeltaRow) bool {
	at, ok := actionType(w.Action)
	*r = p4.DeltaRow{Priority: w.Priority, Action: p4.Action{Type: at, Class: w.Class}, Lo: w.Lo, Hi: w.Hi}
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
// range-match entry per live rule (rules.RuleSet.RangeEntries), actions
// derived from each rule's class, with the given miss behaviour. (The
// detector table is a range table; TCAM prefix-expansion cost is accounted
// separately via rules.RuleSet.Cost.) The program copies the offsets and
// wraps the compiled rows' Lo and Hi where they lie. A rule the wire
// cannot carry — a priority or class outside int32, bounds not as wide as
// the key — is refused here (ErrMalformed), before anything is sent.
func ProgramFromRuleSet(rs *rules.RuleSet, missAction p4.Action) (Program, error) {
	entries, err := rs.RangeEntries()
	if err != nil {
		return Program{}, fmt.Errorf("p4rt: compile: %w", err)
	}
	prog := Program{
		Offsets:       append([]int(nil), rs.Offsets...),
		DefaultAction: FormatAction(missAction.Type),
		DefaultClass:  missAction.Class,
		Entries:       make([]WireEntry, len(entries)),
	}
	for i := range entries {
		e := &entries[i]
		action := p4.ActionAllow
		if rules.ActionForClass(e.Class) == rules.ActionDrop {
			action = p4.ActionDrop
		}
		prog.Entries[i] = WireEntry{Priority: e.Priority, Lo: e.Lo, Hi: e.Hi, Action: FormatAction(action), Class: e.Class}
		if !prog.Entries[i].fits(len(rs.Offsets)) {
			return Program{}, fmt.Errorf("%w: rule %d (priority %d, class %d) is not a %d-byte row of 32-bit numbers",
				ErrMalformed, i, e.Priority, e.Class, len(rs.Offsets))
		}
	}
	return prog, nil
}
