package p4rt

import (
	"errors"
	"runtime"
	"testing"

	"p4guard/internal/p4"
)

// bodyTable is the small table write and delta bodies are applied to: four
// programmed rows on a two-byte key — a range row over point rows — with
// room for a few more.
func bodyTable(t testing.TB) *p4.Table {
	t.Helper()
	specs := []p4.FieldSpec{{Name: "k0", Offset: 0, Width: 1}, {Name: "k1", Offset: 1, Width: 1}}
	tbl := p4.NewTable("det", p4.MatchRange, specs, 12, p4.Action{Type: p4.ActionDigest})
	drop := p4.Action{Type: p4.ActionDrop, Class: 1}
	if err := tbl.Replace([]p4.Entry{
		{Priority: 3, Lo: []byte{1, 0}, Hi: []byte{1, 255}, Action: drop},
		{Priority: 2, Lo: []byte{1, 7}, Hi: []byte{1, 7}, Action: p4.Action{Type: p4.ActionAllow}},
		{Priority: 2, Lo: []byte{2, 2}, Hi: []byte{2, 2}, Action: drop},
		{Priority: 1, Lo: []byte{3, 3}, Hi: []byte{3, 3}, Action: drop},
	}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkWriteAndDeltaBody takes body for the body of a write and then of a
// delta, as the agent does — DecodeBody, ToP4Entry or ToP4Delta, Insert or
// ProgramDelta — on a fresh bodyTable each. Whatever the bytes, each ends
// in a refusal callers can tell apart (ErrMalformed from the decoder, an
// action the protocol does not name, p4's ErrBadEntry, ErrTableFull or
// ErrDeltaBase from the table, which is then exactly as it was) or in a
// table whose index and scan agree on every key of its two bytes' first
// sixteen values; never in a panic.
func checkWriteAndDeltaBody(t *testing.T, body []byte) {
	t.Helper()
	refusal := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, p4.ErrBadEntry) && !errors.Is(err, p4.ErrTableFull) && !errors.Is(err, p4.ErrDeltaBase) {
			t.Fatalf("%s refused with %v, which is none of the table's errors", what, err)
		}
	}
	agree := func(what string, tbl *p4.Table, applied bool) {
		t.Helper()
		if !applied {
			count, hash := tbl.ProgramSignature()
			if wc, wh := bodyTable(t).ProgramSignature(); tbl.Len() != 4 || count != wc || hash != wh || tbl.DefaultAction.Type != p4.ActionDigest {
				t.Fatalf("%s: refused, and left %d rows under %v, signature (%d, %#x)", what, tbl.Len(), tbl.DefaultAction, count, hash)
			}
		}
		for k := 0; k < 256; k++ {
			frame := []byte{byte(k >> 4), byte(k & 15)}
			act, matched := tbl.Lookup(frame)
			if oa, om := tbl.LookupOracle(frame); act != oa || matched != om {
				t.Fatalf("%s, frame %v: lookup (%+v,%v), scan (%+v,%v)", what, frame, act, matched, oa, om)
			}
		}
	}

	var w Write
	if err := DecodeBody(Envelope{Type: TypeWrite, Body: body}, &w); err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("write body refused with %v, want ErrMalformed", err)
		}
	} else if e, err := w.Entry.ToP4Entry(); err != nil {
		if _, known := actionType(w.Entry.Action); known {
			t.Fatalf("ToP4Entry: %v, of an action the protocol names", err)
		}
	} else {
		tbl := bodyTable(t)
		_, err := tbl.Insert(e)
		if err != nil {
			refusal("write", err)
		}
		agree("write", tbl, err == nil)
	}

	var d DeltaMsg
	if err := DecodeBody(Envelope{Type: TypeDelta, Body: body}, &d); err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("delta body refused with %v, want ErrMalformed", err)
		}
		return
	}
	def, defErr := ParseAction(d.DefaultAction)
	pd, err := d.ToP4Delta()
	if defErr != nil || err != nil {
		return // an action without a p4 type: applyDelta answers with the error before the table is reached
	}
	tbl := bodyTable(t)
	if err = tbl.ProgramDelta(p4.Action{Type: def, Class: d.DefaultClass}, pd); err != nil {
		refusal("delta", err)
	}
	agree("delta", tbl, err == nil)
}

// writeAndDeltaBodies are bodies a fuzzer would take long to find: the
// valid ones that reach the table, and the ones whose numbers name rows,
// places or sizes far past anything that arrived.
var writeAndDeltaBodies = map[string]string{
	"write":            `{"entry":{"priority":1048576,"lo":"BAQ=","hi":"BAQ=","action":"drop","class":1},"trace_id":7}`,
	"write-range":      `{"entry":{"priority":9,"lo":"AAA=","hi":"//8=","action":"allow"}}`,
	"write-wide":       `{"entry":{"lo":"BAQE","hi":"BAQE","action":"drop"}}`,
	"write-uneven":     `{"entry":{"lo":"BA==","hi":"BAQE","action":"drop"}}`,
	"write-inverted":   `{"entry":{"lo":"BQU=","hi":"BAQ=","action":"drop"}}`,
	"write-ternary":    `{"entry":{"value":"BAQ=","mask":"//8=","action":"drop"}}`,
	"write-priority":   `{"entry":{"priority":4294967296,"lo":"BAQ=","hi":"BAQ=","action":"drop"}}`,
	"write-prefix-len": `{"entry":{"prefix_len":-9223372036854775808,"lo":"BAQ=","hi":"BAQ=","action":"drop"}}`,
	"write-action":     `{"entry":{"lo":"BAQ=","hi":"BAQ=","action":"reflect"}}`,
	"delta": `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1],"moves":[{"base":3,"priority":5,"order":0}],` +
		`"adds":[{"entry":{"priority":2,"lo":"CQk=","hi":"CQk=","action":"drop","class":2},"order":2}]}`,
	"delta-empty":         `{"offsets":[0,1],"default_action":"drop","base_count":4}`,
	"delta-base-count":    `{"offsets":[0,1],"default_action":"allow","base_count":1099511627776,"deletes":[1]}`,
	"delta-base-negative": `{"offsets":[0,1],"default_action":"allow","base_count":-4}`,
	"delta-base-hash":     `{"offsets":[0,1],"default_action":"allow","base_count":4,"base_hash":1}`,
	"delta-delete-far":    `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1099511627776]}`,
	"delta-delete-twice":  `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1,1]}`,
	"delta-delete-all":    `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[0,1,2,3,-1]}`,
	"delta-move-far":      `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1099511627776,"priority":1,"order":0}]}`,
	"delta-move-order":    `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1,"priority":1,"order":1099511627776}]}`,
	"delta-move-priority": `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1,"priority":-4294967296,"order":1}]}`,
	"delta-add-order": `{"offsets":[0,1],"default_action":"allow","base_count":4,` +
		`"adds":[{"entry":{"lo":"CQk=","hi":"CQk=","action":"drop"},"order":1099511627776}]}`,
	"delta-add-same-order": `{"offsets":[0,1],"default_action":"allow","base_count":4,` +
		`"adds":[{"entry":{"lo":"CQk=","hi":"CQk=","action":"drop"},"order":1},{"entry":{"lo":"CAg=","hi":"CAg=","action":"drop"},"order":1}]}`,
	"delta-add-wide": `{"offsets":[0,1],"default_action":"allow","base_count":4,` +
		`"adds":[{"entry":{"lo":"CQkJ","hi":"CQkJ","action":"drop"},"order":1}]}`,
	"delta-add-action": `{"offsets":[0,1],"default_action":"allow","base_count":4,` +
		`"adds":[{"entry":{"lo":"CQk=","hi":"CQk=","action":"reflect"},"order":1}]}`,
	"delta-default": `{"offsets":[0,1],"default_action":"reflect","base_count":4}`,
	"not-json":      `{"entry":`,
	"wrong-types":   `{"entry":[],"base_count":"4"}`,
}

// TestWriteAndDeltaBodyCases runs the hand-written bodies and holds each
// to what the fuzzer cannot afford to measure on every execution: no body
// makes the decoder or the table allocate by a number it carries — a base
// count, an index, an order — before bytes of that size have arrived.
func TestWriteAndDeltaBodyCases(t *testing.T) {
	for name, body := range writeAndDeltaBodies {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			checkWriteAndDeltaBody(t, []byte(body))
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
				t.Fatalf("a %d-byte body allocated %d bytes", len(body), alloc)
			}
		})
	}
	// The two that must get through: the check above is vacuous otherwise.
	tbl := bodyTable(t)
	var w Write
	var d DeltaMsg
	if err := errors.Join(DecodeBody(Envelope{Type: TypeWrite, Body: []byte(writeAndDeltaBodies["write"])}, &w),
		DecodeBody(Envelope{Type: TypeDelta, Body: []byte(writeAndDeltaBodies["delta"])}, &d)); err != nil {
		t.Fatal(err)
	}
	e, err := w.Entry.ToP4Entry()
	pd, errDelta := d.ToP4Delta()
	if err := errors.Join(err, errDelta); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(e); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ProgramDelta(p4.Action{Type: p4.ActionAllow}, pd); err != nil || tbl.Len() != 5 {
		t.Fatalf("the valid delta after the valid write: %v, %d rows", err, tbl.Len())
	}
}

// FuzzWriteAndDeltaBodies feeds arbitrary bytes to the two decode
// boundaries beside the program frame's: see checkWriteAndDeltaBody.
func FuzzWriteAndDeltaBodies(f *testing.F) {
	for _, body := range writeAndDeltaBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkWriteAndDeltaBody(t, body) })
}
