package p4rt

import (
	"fmt"

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

// actionType is ParseAction for the frame decoder, which has a name where
// it lies in the frame and no use for an error that quotes it.
func actionType(s string) (p4.ActionType, bool) {
	switch s {
	case "allow":
		return p4.ActionAllow, true
	case "drop":
		return p4.ActionDrop, true
	case "digest":
		return p4.ActionDigest, true
	case "set_class":
		return p4.ActionSetClass, true
	case "nop":
		return p4.ActionNop, true
	}
	return 0, false
}

// ToP4Entry converts a wire entry to a p4 table entry.
func (w WireEntry) ToP4Entry() (p4.Entry, error) {
	at, err := ParseAction(w.Action)
	if err != nil {
		return p4.Entry{}, err
	}
	return p4.Entry{
		Priority:  w.Priority,
		Value:     w.Value,
		Mask:      w.Mask,
		PrefixLen: w.PrefixLen,
		Lo:        w.Lo,
		Hi:        w.Hi,
		Action:    p4.Action{Type: at, Class: w.Class},
	}, nil
}

// rows converts a Program that encoding/json decoded into the form the
// single-pass route produces directly: range rows, Lo and Hi in one slab.
// The first action without a p4 type, the default's first, is the error.
func (p *Program) rows() (*programRows, error) {
	def, err := ParseAction(p.DefaultAction)
	if err != nil {
		return nil, err
	}
	out := &programRows{offsets: p.Offsets, def: p4.Action{Type: def, Class: p.DefaultClass},
		entries: &p4.Rows{}, installed: len(p.Entries), traceID: p.TraceID, spanID: p.SpanID}
	out.entries.Grow(len(p.Entries), 2*len(p.Offsets)*len(p.Entries)) // rows of another width are refused anyway
	for i := range p.Entries {
		e := &p.Entries[i]
		at, err := ParseAction(e.Action)
		if err != nil {
			return nil, err
		}
		out.entries.Add(e.Priority, e.PrefixLen, e.Lo, e.Hi, p4.Action{Type: at, Class: e.Class})
	}
	return out, nil
}

// ToP4Delta converts the wire delta into a p4.Delta.
func (d *DeltaMsg) ToP4Delta() (p4.Delta, error) {
	out := p4.Delta{
		BaseCount: d.BaseCount,
		BaseHash:  d.BaseHash,
		Deletes:   d.Deletes,
	}
	if len(d.Moves) > 0 {
		out.Moves = make([]p4.DeltaMove, len(d.Moves))
		for i, m := range d.Moves {
			out.Moves[i] = p4.DeltaMove{Base: m.Base, Priority: m.Priority, Order: m.Order}
		}
	}
	if len(d.Adds) > 0 {
		out.Adds = make([]p4.DeltaAdd, len(d.Adds))
		for i, a := range d.Adds {
			e, err := a.Entry.ToP4Entry()
			if err != nil {
				return p4.Delta{}, err
			}
			out.Adds[i] = p4.DeltaAdd{Entry: e, Order: a.Order}
		}
	}
	return out, nil
}

// deltaRow fills r with the wire entry's view for p4.DiffRows; an entry
// whose action has no p4 type has none.
func (w *WireEntry) deltaRow(r *p4.DeltaRow) bool {
	at, err := ParseAction(w.Action)
	if err != nil {
		return false
	}
	r.Priority, r.PrefixLen, r.Action = w.Priority, w.PrefixLen, p4.Action{Type: at, Class: w.Class}
	r.Value, r.Mask, r.Lo, r.Hi = w.Value, w.Mask, w.Lo, w.Hi
	return true
}

// DeltaFromPrograms diffs two Program messages for the same key layout
// into a DeltaMsg. ok is false when no valid delta exists — layouts
// differ, an entry names an unknown action, the diff is ambiguous
// (duplicate entries), or surviving entries reordered — in which case
// the caller sends next wholesale. The diff is p4.ComputeDelta's, run on
// the wire entries where they lie; the rows the delta adds are next's.
func DeltaFromPrograms(prev, next Program) (DeltaMsg, bool) {
	if len(prev.Offsets) != len(next.Offsets) {
		return DeltaMsg{}, false
	}
	for i := range prev.Offsets {
		if prev.Offsets[i] != next.Offsets[i] {
			return DeltaMsg{}, false
		}
	}
	d, ok := p4.DiffRows(prev.Entries, next.Entries, (*WireEntry).deltaRow)
	if !ok {
		return DeltaMsg{}, false
	}
	msg := DeltaMsg{
		Offsets:       next.Offsets,
		DefaultAction: next.DefaultAction,
		DefaultClass:  next.DefaultClass,
		BaseCount:     d.BaseCount,
		BaseHash:      d.BaseHash,
		Deletes:       d.Deletes,
	}
	if len(d.Moves) > 0 {
		msg.Moves = make([]WireDeltaMove, len(d.Moves))
		for i, m := range d.Moves {
			msg.Moves[i] = WireDeltaMove{Base: m.Base, Priority: m.Priority, Order: m.Order}
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
// range-match entry per rule, actions derived from each rule's class, with
// the given miss behaviour. (The detector table is a range table; TCAM
// prefix-expansion cost is accounted separately via rules.RuleSet.Cost.)
func ProgramFromRuleSet(rs *rules.RuleSet, missAction p4.Action) (Program, error) {
	entries, err := rs.RangeEntries()
	if err != nil {
		return Program{}, fmt.Errorf("p4rt: compile: %w", err)
	}
	return ProgramFromEntries(rs.Offsets, entries, missAction), nil
}

// ProgramFromEntries is ProgramFromRuleSet for rows already compiled
// (rules.RuleSet.RangeEntries, or match.Compiled.RangeEntries when the
// rule set has been compiled anyway). The program copies the offsets and
// wraps the rows' Lo and Hi where they lie.
func ProgramFromEntries(offsets []int, entries []rules.RangeEntry, missAction p4.Action) Program {
	prog := Program{
		Offsets:       append([]int(nil), offsets...),
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
		prog.Entries[i] = WireEntry{
			Priority: e.Priority,
			Lo:       e.Lo,
			Hi:       e.Hi,
			Action:   FormatAction(action),
			Class:    e.Class,
		}
	}
	return prog
}
