package p4rt

import (
	"errors"
	"math"
	"runtime"
	"strings"
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

// bodyFrame frames body — a JSON head, then whatever follows it as the row
// section — as a frame of type typ and splits it as the agent does.
func bodyFrame(typ MsgType, body []byte) (Envelope, error) {
	end := valueEnd(body, 0)
	return splitFrame([]byte(`{"type":"` + string(typ) + `","body":` + string(body[:end]) + `}` + string(body[end:])))
}

// checkWriteAndDeltaBody takes body for the body of a write and then of a
// delta, as the agent does — splitFrame, decodeWrite or decodeDelta,
// Insert or ProgramDelta — on a fresh bodyTable each. Whatever the bytes,
// each ends in a refusal callers can tell apart (ErrMalformed from the
// decoder, an unknown default action, p4's ErrBadEntry, ErrTableFull or
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

	env, err := bodyFrame(TypeWrite, body)
	var e p4.Entry
	if err == nil {
		_, e, err = decodeWrite(env)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("write body refused with %v, want ErrMalformed", err)
		}
	} else {
		tbl := bodyTable(t)
		_, err := tbl.Insert(e)
		if err != nil {
			refusal("write", err)
		}
		agree("write", tbl, err == nil)
	}

	env, err = bodyFrame(TypeDelta, body)
	var (
		d   DeltaMsg
		def p4.Action
		pd  p4.Delta
	)
	if err == nil {
		d, def, pd, err = decodeDelta(env)
	}
	if err != nil {
		if _, known := actionType(d.DefaultAction); !errors.Is(err, ErrMalformed) && (known || !strings.Contains(err.Error(), "unknown action")) {
			t.Fatalf("delta body refused with %v, want ErrMalformed or its unknown default action", err)
		}
		return // applyDelta answers with the error before the table is reached
	}
	tbl := bodyTable(t)
	if err = tbl.ProgramDelta(def, pd); err != nil {
		refusal("delta", err)
	}
	agree("delta", tbl, err == nil)
}

// prow is one packed row on a key of len(lo) bytes, as a string to build
// bodies with.
func prow(lo, hi []byte, priority, class int32, act p4.ActionType) string {
	return string(packRow(lo, hi, priority, class, act))
}

// writeAndDeltaBodies are bodies — head, then section — a fuzzer would
// take long to find: the valid ones that reach the table, rows at the
// int32 edges, sections that disagree with their heads, version-1 bodies
// whose rows were JSON, and heads whose numbers name rows, places or
// sizes far past anything that arrived.
var writeAndDeltaBodies = map[string]string{
	"write":            `{"trace_id":7}` + prow([]byte{4, 4}, []byte{4, 4}, 1048576, 1, p4.ActionDrop),
	"write-range":      `{}` + prow([]byte{0, 0}, []byte{255, 255}, 9, 0, p4.ActionAllow),
	"write-wide":       `{}` + prow([]byte{4, 4, 4}, []byte{4, 4, 4}, 0, 0, p4.ActionDrop),
	"write-uneven":     `{}` + prow([]byte{4}, []byte{4, 4}, 0, 0, p4.ActionDrop),
	"write-inverted":   `{}` + prow([]byte{5, 5}, []byte{4, 4}, 0, 0, p4.ActionDrop),
	"write-ternary":    `{"entry":{"value":"BAQ=","mask":"//8=","action":"drop"}}`,
	"write-priority":   `{}` + prow([]byte{4, 4}, []byte{4, 4}, math.MinInt32, math.MaxInt32, p4.ActionDrop),
	"write-prefix-len": `{"entry":{"prefix_len":-9223372036854775808,"lo":"BAQ=","hi":"BAQ=","action":"drop"}}`,
	"write-action":     `{}` + prow([]byte{4, 4}, []byte{4, 4}, 0, 0, p4.ActionNop+1),
	"delta": `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1],"moves":[{"base":3,"priority":5,"order":0}],` +
		`"adds":[2]}` + prow([]byte{9, 9}, []byte{9, 9}, 2, 2, p4.ActionDrop),
	"delta-empty":          `{"offsets":[0,1],"default_action":"drop","base_count":4}`,
	"delta-base-count":     `{"offsets":[0,1],"default_action":"allow","base_count":1099511627776,"deletes":[1]}`,
	"delta-base-negative":  `{"offsets":[0,1],"default_action":"allow","base_count":-4}`,
	"delta-base-hash":      `{"offsets":[0,1],"default_action":"allow","base_count":4,"base_hash":1}`,
	"delta-delete-far":     `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1099511627776]}`,
	"delta-delete-twice":   `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[1,1]}`,
	"delta-delete-all":     `{"offsets":[0,1],"default_action":"allow","base_count":4,"deletes":[0,1,2,3,-1]}`,
	"delta-move-far":       `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1099511627776,"priority":1,"order":0}]}`,
	"delta-move-order":     `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1,"priority":1,"order":1099511627776}]}`,
	"delta-move-priority":  `{"offsets":[0,1],"default_action":"allow","base_count":4,"moves":[{"base":1,"priority":-4294967296,"order":1}]}`,
	"delta-add-order":      `{"offsets":[0,1],"default_action":"allow","base_count":4,"adds":[1099511627776]}` + prow([]byte{9, 9}, []byte{9, 9}, 0, 0, p4.ActionDrop),
	"delta-add-same-order": `{"offsets":[0,1],"default_action":"allow","base_count":4,"adds":[1,1]}` + prow([]byte{9, 9}, []byte{9, 9}, 0, 0, p4.ActionDrop) + prow([]byte{8, 8}, []byte{8, 8}, 0, 0, p4.ActionDrop),
	"delta-add-wide":       `{"offsets":[0,1],"default_action":"allow","base_count":4,"adds":[1]}` + prow([]byte{9, 9, 9}, []byte{9, 9, 9}, 0, 0, p4.ActionDrop),
	"delta-add-action":     `{"offsets":[0,1],"default_action":"allow","base_count":4,"adds":[1]}` + prow([]byte{9, 9}, []byte{9, 9}, 0, 0, 200),
	"delta-default":        `{"offsets":[0,1],"default_action":"reflect","base_count":4}`,
	"not-json":             `{"entry":`,
	"wrong-types":          `{"entry":[],"base_count":"4"}`,
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
	// The ones that must get through: the check above is vacuous otherwise.
	tbl := bodyTable(t)
	for _, name := range []string{"write", "write-priority"} {
		env, err := bodyFrame(TypeWrite, []byte(writeAndDeltaBodies[name]))
		if err != nil {
			t.Fatal(err)
		}
		_, e, err := decodeWrite(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(e); err != nil {
			t.Fatal(name, err)
		}
	}
	env, err := bodyFrame(TypeDelta, []byte(writeAndDeltaBodies["delta"]))
	if err != nil {
		t.Fatal(err)
	}
	_, def, pd, err := decodeDelta(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ProgramDelta(def, pd); err != nil || tbl.Len() != 6 {
		t.Fatalf("the valid delta after the valid writes: %v, %d rows", err, tbl.Len())
	}
}

// FuzzWriteAndDeltaBodies feeds arbitrary bytes — a head and a row
// section, as valueEnd splits them — to the two decode boundaries beside
// the program frame's: see checkWriteAndDeltaBody.
func FuzzWriteAndDeltaBodies(f *testing.F) {
	for _, body := range writeAndDeltaBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkWriteAndDeltaBody(t, body) })
}
