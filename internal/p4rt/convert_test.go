package p4rt

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/rules"
)

// programViaRangeEntries builds a Program the way ProgramFromRuleSet did
// while rules were compiled into entries first: rules.RuleSet.RangeEntries,
// then one WireEntry per entry, refused as the wire refuses it.
func programViaRangeEntries(rs *rules.RuleSet, missAction p4.Action) (Program, error) {
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

// randomRuleSet draws a rule set over a layout of up to six offsets (now
// and then one repeated), whose rules put up to five predicates on offsets
// of the layout, often the same one twice, so that some intersect to
// nothing and leave a dead row. One set in eight has a rule whose priority
// or class the wire cannot carry, one in eight a predicate off the layout.
func randomRuleSet(rng *rand.Rand) *rules.RuleSet {
	offs := make([]int, rng.Intn(7))
	for i := range offs {
		offs[i] = 10 + rng.Intn(40)
		if i > 0 && rng.Intn(8) == 0 {
			offs[i] = offs[i-1]
		}
	}
	rs := rules.NewRuleSet(offs, rng.Intn(3))
	for r, n := 0, rng.Intn(40); r < n; r++ {
		rule := rules.Rule{Priority: 1000 - r, Class: rng.Intn(4)}
		for p := rng.Intn(6); p > 0 && len(offs) > 0; p-- {
			lo, hi := byte(rng.Intn(256)), byte(rng.Intn(256))
			if lo > hi && rng.Intn(3) > 0 {
				lo, hi = hi, lo
			}
			rule.Preds = append(rule.Preds, rules.BytePredicate{Offset: offs[rng.Intn(len(offs))], Lo: lo, Hi: hi})
		}
		rs.Rules = append(rs.Rules, rule)
	}
	if len(rs.Rules) > 0 {
		rule := &rs.Rules[rng.Intn(len(rs.Rules))]
		switch rng.Intn(8) {
		case 0:
			rule.Priority = 1<<31 + rng.Intn(1<<20)
		case 1:
			rule.Class = -1<<31 - 1 - rng.Intn(1<<20)
		case 2:
			rule.Preds = append(rule.Preds, rules.BytePredicate{Offset: 60 + rng.Intn(8), Lo: 0, Hi: 255})
		}
	}
	return rs
}

// TestProgramFromRuleSetMatchesRangeEntries: the program compiled from the
// rule set's packed rows is, entry for entry, the one built from its range
// entries — dead rows left out, predicates repeated on one offset
// intersected — and a rule set either refuses, it refuses with the same
// error: a priority or class past int32 (ErrMalformed) or a predicate on
// an offset outside the layout. Every entry's Lo and Hi are capped to the
// key, so nothing appended to one reaches the next.
func TestProgramFromRuleSetMatchesRangeEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	miss := p4.Action{Type: p4.ActionDigest, Class: 2}
	var dead, malformed, outside int
	for i := 0; i < 3000; i++ {
		rs := randomRuleSet(rng)
		got, gerr := ProgramFromRuleSet(rs, miss)
		want, werr := programViaRangeEntries(rs, miss)
		if (gerr == nil) != (werr == nil) || gerr != nil && (gerr.Error() != werr.Error() || errors.Is(gerr, ErrMalformed) != errors.Is(werr, ErrMalformed)) {
			t.Fatalf("set %d: error %v, want %v", i, gerr, werr)
		}
		switch {
		case errors.Is(werr, ErrMalformed):
			malformed++
			continue
		case werr != nil:
			outside++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d over %v:\n got %+v\nwant %+v", i, rs.Offsets, got, want)
		}
		w := len(rs.Offsets)
		for j, e := range got.Entries {
			if cap(e.Lo) != w || cap(e.Hi) != w {
				t.Fatalf("set %d entry %d: Lo/Hi capacity %d/%d, want %d", i, j, cap(e.Lo), cap(e.Hi), w)
			}
		}
		dead += len(rs.Rules) - len(got.Entries)
	}
	if dead == 0 || malformed == 0 || outside == 0 {
		t.Fatalf("the sets held %d dead rows, %d malformed and %d off-layout refusals: a case is not covered", dead, malformed, outside)
	}
}
