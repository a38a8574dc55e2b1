// Package rules defines the match–action rule representation the two-stage
// pipeline compiles into: conjunctions of per-byte range predicates over a
// small set of selected header offsets, expandable into priority-ordered
// ternary (value/mask) entries installable in a TCAM-style P4 table.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"p4guard/internal/packet"
)

// Action is what the data plane does with a matching packet.
type Action int

// Data-plane actions.
const (
	ActionAllow Action = iota + 1
	ActionDrop
	ActionToController
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDrop:
		return "drop"
	case ActionToController:
		return "to-controller"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// ActionForClass maps a predicted class to the gateway policy: benign
// traffic is allowed, everything else dropped.
func ActionForClass(class int) Action {
	if class == 0 {
		return ActionAllow
	}
	return ActionDrop
}

// BytePredicate constrains one header byte to an inclusive range.
type BytePredicate struct {
	Offset int
	Lo, Hi byte
}

// Matches reports whether the packet byte at the predicate's offset is in
// range.
func (p BytePredicate) Matches(pkt *packet.Packet) bool {
	b := pkt.ByteAt(p.Offset)
	return b >= p.Lo && b <= p.Hi
}

// Trivial reports whether the predicate admits every byte value.
func (p BytePredicate) Trivial() bool { return p.Lo == 0 && p.Hi == 0xff }

// Rule is a conjunction of byte predicates with a predicted class. Rules in
// a set are ordered by descending priority; the first match wins.
type Rule struct {
	Priority int
	Preds    []BytePredicate
	Class    int
}

// Matches reports whether every predicate admits the packet.
func (r *Rule) Matches(pkt *packet.Packet) bool {
	for _, p := range r.Preds {
		if !p.Matches(pkt) {
			return false
		}
	}
	return true
}

// String renders the rule for debugging.
func (r *Rule) String() string {
	parts := make([]string, 0, len(r.Preds))
	for _, p := range r.Preds {
		if p.Trivial() {
			continue
		}
		parts = append(parts, fmt.Sprintf("b%d∈[%d,%d]", p.Offset, p.Lo, p.Hi))
	}
	if len(parts) == 0 {
		parts = append(parts, "*")
	}
	return fmt.Sprintf("prio=%d %s -> class %d", r.Priority, strings.Join(parts, " ∧ "), r.Class)
}

// RuleSet is a priority-ordered rule list over a fixed match-key layout
// (the selected header byte offsets). DefaultClass applies on miss.
type RuleSet struct {
	// Offsets is the match-key layout: which header bytes the data plane
	// extracts, in key order.
	Offsets []int
	// Rules are ordered by descending priority.
	Rules []Rule
	// DefaultClass is the class assigned on table miss.
	DefaultClass int
	// Miss, when true for a classify call, is reported by ClassifyDetail.
	link packet.LinkType
}

// NewRuleSet returns an empty rule set over the given key layout.
func NewRuleSet(offsets []int, defaultClass int) *RuleSet {
	offs := make([]int, len(offsets))
	copy(offs, offsets)
	return &RuleSet{Offsets: offs, DefaultClass: defaultClass}
}

// SetLink records the link type the rule set was trained for (used only for
// pretty-printing selected fields).
func (rs *RuleSet) SetLink(l packet.LinkType) { rs.link = l }

// Link returns the recorded link type.
func (rs *RuleSet) Link() packet.LinkType { return rs.link }

// Add inserts a rule after every rule of equal or higher priority, keeping
// the list sorted by descending priority: the order append + a stable sort
// would give. Rules must already be in that order, as every writer in this
// module leaves it (Add, Compress, PruneDefault, the controller's shard
// plans). A binary search finds the slot and the tail shifts by one, so
// an add costs O(log n) compares and one copy of the rows below it.
func (rs *RuleSet) Add(r Rule) {
	i := sort.Search(len(rs.Rules), func(i int) bool { return rs.Rules[i].Priority < r.Priority })
	rs.Rules = append(rs.Rules, Rule{})
	copy(rs.Rules[i+1:], rs.Rules[i:])
	rs.Rules[i] = r
}

// Classify returns the class of the first matching rule, or DefaultClass on
// miss.
func (rs *RuleSet) Classify(pkt *packet.Packet) int {
	class, _ := rs.ClassifyDetail(pkt)
	return class
}

// ClassifyDetail additionally reports whether any rule matched. The
// linear scan is the reference oracle for the compiled bitset matcher in
// internal/match: hot paths classify through match.Compile, and
// differential tests assert the two never disagree.
func (rs *RuleSet) ClassifyDetail(pkt *packet.Packet) (class int, matched bool) {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(pkt) {
			return rs.Rules[i].Class, true
		}
	}
	return rs.DefaultClass, false
}

// Describe renders the key layout with protocol field names.
func (rs *RuleSet) Describe() string {
	return packet.DescribeOffsets(rs.link, rs.Offsets)
}
