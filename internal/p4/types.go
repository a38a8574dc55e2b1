// Package p4 implements P4Lite, a behavioural model of a programmable
// data plane: match–action tables with range and ternary match kinds,
// the one-table pipeline the detector program declares, per-table and
// per-entry counters, and a digest queue sending the lookup keys of misses
// to the controller. Frames are parsed by packet.ParseFrame. It stands in
// for the BMv2/Tofino targets the paper deployed on, preserving
// match–action semantics and table cost accounting.
package p4

import (
	"errors"
	"fmt"
)

// MatchKind is the match semantics of a table.
type MatchKind int

// Supported match kinds.
const (
	MatchTernary MatchKind = iota + 1
	MatchRange
)

// String returns the P4 name of the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	default:
		return fmt.Sprintf("matchkind(%d)", int(k))
	}
}

// ActionType is what a table entry does with a packet.
type ActionType int

// Supported actions: the detector program's allow, drop and send_digest.
const (
	// ActionAllow forwards the packet.
	ActionAllow ActionType = iota + 1
	// ActionDrop discards the packet; with a class it is the generated
	// program's set_class_and_drop.
	ActionDrop
	// ActionDigest forwards the packet and enqueues a digest of it for the
	// controller.
	ActionDigest
)

// String returns the action name.
func (a ActionType) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDrop:
		return "drop"
	case ActionDigest:
		return "digest"
	default:
		return fmt.Sprintf("actiontype(%d)", int(a))
	}
}

// Action is an action invocation with parameters.
type Action struct {
	Type ActionType
	// Class is the class an allow or drop verdict carries.
	Class int
}

// FieldSpec names one match-key component: a byte range of the frame.
type FieldSpec struct {
	Name   string
	Offset int
	Width  int
}

// KeyWidth sums the widths of the specs.
func KeyWidth(specs []FieldSpec) int {
	var w int
	for _, s := range specs {
		w += s.Width
	}
	return w
}

// ExtractKey concatenates the frame bytes each spec covers; bytes past the
// frame end read as zero (matching parser padding semantics).
func ExtractKey(frame []byte, specs []FieldSpec) []byte {
	key := make([]byte, KeyWidth(specs))
	fillKey(key, frame, specs)
	return key
}

// fillKey writes the match key for the specs into dst (len == key
// width), zero-padding bytes past the frame end. Hot paths hand it a
// stack or workspace buffer so a lookup allocates nothing.
func fillKey(dst, frame []byte, specs []FieldSpec) {
	k := 0
	for _, s := range specs {
		for i := 0; i < s.Width; i++ {
			off := s.Offset + i
			if off >= 0 && off < len(frame) {
				dst[k] = frame[off]
			} else {
				dst[k] = 0
			}
			k++
		}
	}
}

// Errors shared by the package.
var (
	// ErrTableFull is returned when MaxEntries would be exceeded.
	ErrTableFull = errors.New("p4: table full")
	// ErrNoSuchTable is returned for operations on unknown tables.
	ErrNoSuchTable = errors.New("p4: no such table")
	// ErrBadEntry is returned for entries inconsistent with the table.
	ErrBadEntry = errors.New("p4: bad entry")
)
