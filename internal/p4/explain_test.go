package p4

import (
	"math/rand"
	"testing"

	"p4guard/internal/packet"
)

// explainLookupAgree asserts Explain and Lookup agree on frame for every
// given frame against the table's current generation.
func explainLookupAgree(t *testing.T, tbl *Table, frames [][]byte) {
	t.Helper()
	for _, frame := range frames {
		st := tbl.state.Load()
		key := ExtractKey(frame, st.key)
		act, matched := tbl.Lookup(key)
		ex := tbl.Explain(frame)
		if ex.Action != act || ex.Matched != matched {
			t.Fatalf("frame %v: Explain (%+v,%v) != Lookup (%+v,%v)",
				frame, ex.Action, ex.Matched, act, matched)
		}
		if matched == ex.DefaultUsed {
			t.Fatalf("frame %v: matched=%v but DefaultUsed=%v", frame, matched, ex.DefaultUsed)
		}
		if matched && ex.Winner == nil {
			t.Fatalf("frame %v: hit without winner", frame)
		}
	}
}

// TestExplainLookupAgreementUnderTernaryChurn drives a ternary table
// through continuous insert/delete churn — including equal-priority
// entries in different mask groups, where a naive priority scan and the
// tuple-space search disagree — asserting after every mutation that
// Explain's action and match result equal Lookup's for a spread of keys.
func TestExplainLookupAgreementUnderTernaryChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := NewTable("det", MatchTernary, key1(), 0, Action{Type: ActionAllow})
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = []byte{byte(i * 4)}
	}
	masks := []byte{0xff, 0xf0, 0x80, 0x00, 0xc0}
	var ids []uint64
	for round := 0; round < 300; round++ {
		if len(ids) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(ids))
			if err := tbl.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		} else {
			m := masks[rng.Intn(len(masks))]
			e := Entry{
				// Priority drawn from a small set forces equal-priority
				// entries across mask groups.
				Priority: rng.Intn(4),
				Value:    []byte{byte(rng.Intn(256)) & m},
				Mask:     []byte{m},
				Action:   Action{Type: ActionDrop, Class: 1 + rng.Intn(3)},
			}
			id, err := tbl.Insert(e)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		explainLookupAgree(t, tbl, frames)
	}
}

// TestExplainLookupAgreementAllKinds covers ternary and range tables
// with a run of inserts and random keys.
func TestExplainLookupAgreementAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specs := []FieldSpec{{Name: "b", Offset: 0, Width: 2}}
	frames := make([][]byte, 200)
	for i := range frames {
		frames[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	mk := func(kind MatchKind) *Table {
		return NewTable("t-"+kind.String(), kind, specs, 0, Action{Type: ActionDigest})
	}
	insert := func(tbl *Table, kind MatchKind) error {
		e := Entry{Priority: rng.Intn(4), Action: Action{Type: ActionDrop, Class: 1 + rng.Intn(3)}}
		switch kind {
		case MatchTernary:
			e.Mask = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			e.Value = []byte{byte(rng.Intn(256)) & e.Mask[0], byte(rng.Intn(256)) & e.Mask[1]}
		case MatchRange:
			lo0, hi0 := byte(rng.Intn(256)), byte(rng.Intn(256))
			if lo0 > hi0 {
				lo0, hi0 = hi0, lo0
			}
			lo1, hi1 := byte(rng.Intn(256)), byte(rng.Intn(256))
			if lo1 > hi1 {
				lo1, hi1 = hi1, lo1
			}
			e.Lo, e.Hi = []byte{lo0, lo1}, []byte{hi0, hi1}
		}
		_, err := tbl.Insert(e)
		return err
	}
	for _, kind := range []MatchKind{MatchTernary, MatchRange} {
		t.Run(kind.String(), func(t *testing.T) {
			tbl := mk(kind)
			for round := 0; round < 40; round++ {
				if err := insert(tbl, kind); err != nil {
					t.Fatal(err)
				}
				explainLookupAgree(t, tbl, frames)
			}
		})
	}
}

// TestExplainAllocatesItsResult pins what a sampled explain costs the
// detector: the key, the winner with its per-byte evidence, the beaten rows
// with theirs — and nothing else once the generation's list is merged; no
// scratch on a range table (a ternary one takes its lane-masking buffer),
// no second walk.
func TestExplainAllocatesItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []MatchKind{MatchTernary, MatchRange} {
		tbl := NewTable("t", kind, []FieldSpec{{Name: "b", Offset: 0, Width: 2}}, 0, Action{Type: ActionDigest})
		for i := 0; i < 24; i++ {
			e := Entry{Priority: rng.Intn(4), Action: Action{Type: ActionDrop, Class: 1}}
			lo, hi := byte(rng.Intn(200)), byte(rng.Intn(256))
			switch {
			case kind == MatchTernary:
				e.Value, e.Mask = []byte{lo & 0xf0, 0}, []byte{0xf0, 0}
			case i < 16:
				e.Lo, e.Hi = []byte{lo, 0}, []byte{lo + byte(rng.Intn(56)), hi}
			default: // points, derived: the list is merged by the first Explain
				e.Lo, e.Hi = []byte{byte(10 * i), hi}, []byte{byte(10 * i), hi}
			}
			if _, err := tbl.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < 256; b += 5 {
			frame := []byte{byte(b), byte(rng.Intn(256))}
			ex := tbl.Explain(frame)
			want := 1 // the key
			if ex.Matched {
				want += 2
			}
			if len(ex.Beaten) > 0 {
				want += 1 + len(ex.Beaten)
			}
			if kind == MatchTernary {
				want++
			}
			if got := testing.AllocsPerRun(20, func() { tbl.Explain(frame) }); int(got) != want {
				t.Fatalf("%v table, frame %v (matched %v, %d beaten): Explain allocates %v times, its result takes %d",
					kind, frame, ex.Matched, len(ex.Beaten), got, want)
			}
		}
	}
}

// TestExplainVerdictMatchesProcess asserts the table explanation's verdict
// equals the pipeline's on every key — allow, drop and the digest miss —
// and that Explain queues no digests.
func TestExplainVerdictMatchesProcess(t *testing.T) {
	det := NewTable("detector", MatchTernary, key1(), 0, Action{Type: ActionDigest})
	for _, e := range []Entry{
		{Priority: 5, Value: []byte{0x80}, Mask: []byte{0x80}, Action: Action{Type: ActionDrop, Class: 2}},
		{Priority: 1, Value: []byte{0x40}, Mask: []byte{0x40}, Action: Action{Type: ActionAllow, Class: 1}},
	} {
		if _, err := det.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPipeline(det, 256)
	for b := 0; b < 256; b++ {
		pkt := &packet.Packet{Bytes: []byte{byte(b)}}
		queued := p.DigestQueueStats().Offered
		got := det.Explain(pkt.Bytes).Verdict
		if after := p.DigestQueueStats().Offered; after != queued {
			t.Fatalf("byte %#02x: Explain queued a digest (%d -> %d)", b, queued, after)
		}
		if want := p.Process(pkt); got != want {
			t.Fatalf("byte %#02x: Explain verdict %+v != Process %+v", b, got, want)
		}
	}
	if st := p.DigestQueueStats(); st.Offered != 64 {
		t.Fatalf("%d digests offered, want the 64 keys no entry matches", st.Offered)
	}
}
