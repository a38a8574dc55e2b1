package p4

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"p4guard/internal/packet"
)

func key1() []FieldSpec { return []FieldSpec{{Name: "b0", Offset: 0, Width: 1}} }

// point is the range row that matches the one-byte key v and nothing else.
func point(v byte, act Action) Entry {
	return Entry{Lo: []byte{v}, Hi: []byte{v}, Action: act}
}

func TestMatchKindActionStrings(t *testing.T) {
	for k, want := range map[MatchKind]string{MatchTernary: "ternary", MatchRange: "range"} {
		if k.String() != want {
			t.Fatalf("kind %d named %q, want %q", int(k), k.String(), want)
		}
	}
	for _, a := range []ActionType{ActionAllow, ActionDrop, ActionDigest, ActionSetClass, ActionNop} {
		if a.String() == "" {
			t.Fatal("empty action name")
		}
	}
}

func TestExtractKeyPadsMissing(t *testing.T) {
	specs := []FieldSpec{{Offset: 1, Width: 2}, {Offset: 10, Width: 1}}
	key := ExtractKey([]byte{9, 8, 7}, specs)
	if len(key) != 3 || key[0] != 8 || key[1] != 7 || key[2] != 0 {
		t.Fatalf("key = %v", key)
	}
	if KeyWidth(specs) != 3 {
		t.Fatalf("KeyWidth = %d", KeyWidth(specs))
	}
}

func TestTernaryPriority(t *testing.T) {
	tbl := NewTable("det", MatchTernary, key1(), 0, Action{Type: ActionAllow})
	if _, err := tbl.Insert(Entry{
		Priority: 1, Value: []byte{0x00}, Mask: []byte{0x00},
		Action: Action{Type: ActionAllow},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Entry{
		Priority: 10, Value: []byte{0x80}, Mask: []byte{0x80},
		Action: Action{Type: ActionDrop, Class: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if act, _ := tbl.Lookup([]byte{0x90}); act.Type != ActionDrop {
		t.Fatalf("high-priority drop not chosen: %v", act)
	}
	if act, _ := tbl.Lookup([]byte{0x10}); act.Type != ActionAllow {
		t.Fatalf("wildcard allow not chosen: %v", act)
	}
}

func TestTernaryValueOutsideMaskRejected(t *testing.T) {
	tbl := NewTable("det", MatchTernary, key1(), 0, Action{Type: ActionNop})
	_, err := tbl.Insert(Entry{Value: []byte{0x01}, Mask: []byte{0x00}})
	if !errors.Is(err, ErrBadEntry) {
		t.Fatalf("err = %v, want ErrBadEntry", err)
	}
}

func TestRangeTable(t *testing.T) {
	tbl := NewTable("rng", MatchRange, key1(), 0, Action{Type: ActionNop})
	id, err := tbl.Insert(Entry{
		Priority: 1, Lo: []byte{10}, Hi: []byte{20}, Action: Action{Type: ActionDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	if act, matched := tbl.Lookup([]byte{15}); !matched || act.Type != ActionDrop {
		t.Fatalf("15 in [10,20]: %v matched=%v", act, matched)
	}
	if act, matched := tbl.Lookup([]byte{21}); matched || act.Type != ActionNop {
		t.Fatalf("21 against [10,20]: %v matched=%v, want the default", act, matched)
	}
	if _, err := tbl.Insert(Entry{Lo: []byte{5}, Hi: []byte{4}}); !errors.Is(err, ErrBadEntry) {
		t.Fatal("accepted lo>hi")
	}
	if st := tbl.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, matched := tbl.Lookup([]byte{15}); matched {
		t.Fatal("deleted entry still matches")
	}
	if err := tbl.Delete(id); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("second delete: err = %v, want ErrBadEntry", err)
	}
}

// TestUnknownKindIndexesNothing: a table built with a value that names no
// match kind refuses every entry, however it arrives, and misses every
// lookup on every path — it never indexes an entry by accident.
func TestUnknownKindIndexesNothing(t *testing.T) {
	rows := []Entry{
		point(7, Action{Type: ActionDrop}),
		{Value: []byte{7}, Mask: []byte{0xff}, Action: Action{Type: ActionDrop}},
		{Value: []byte{7}, PrefixLen: 8, Action: Action{Type: ActionDrop}},
		{Action: Action{Type: ActionDrop}},
	}
	for _, kind := range []MatchKind{0, 99} {
		tbl := NewTable("k", kind, key1(), 0, Action{Type: ActionNop})
		for i, e := range rows {
			if _, err := tbl.Insert(e); !errors.Is(err, ErrBadEntry) {
				t.Fatalf("kind %v: Insert of row %d: err = %v, want ErrBadEntry", kind, i, err)
			}
			if err := tbl.Replace([]Entry{e}); !errors.Is(err, ErrBadEntry) {
				t.Fatalf("kind %v: Replace with row %d: err = %v, want ErrBadEntry", kind, i, err)
			}
			d := Delta{Adds: []DeltaAdd{{Entry: e}}}
			if err := tbl.Apply(d); !errors.Is(err, ErrBadEntry) {
				t.Fatalf("kind %v: Apply adding row %d: err = %v, want ErrBadEntry", kind, i, err)
			}
		}
		if tbl.Len() != 0 {
			t.Fatalf("kind %v: %d entries installed", kind, tbl.Len())
		}
		pkts := []*packet.Packet{{Bytes: []byte{7}}, {Bytes: []byte{0}}}
		var ws BatchWorkspace
		tbl.LookupBatch(pkts, allIdx(len(pkts)), &ws, 0)
		for i, pkt := range pkts {
			want := Action{Type: ActionNop}
			if act, matched := tbl.Lookup(pkt.Bytes); matched || act != want {
				t.Fatalf("kind %v key %v: Lookup (%+v,%v), want a miss", kind, pkt.Bytes, act, matched)
			}
			if act, matched := tbl.LookupOracle(pkt.Bytes); matched || act != want {
				t.Fatalf("kind %v key %v: scan (%+v,%v), want a miss", kind, pkt.Bytes, act, matched)
			}
			if ws.matched[i] || ws.acts[i] != want {
				t.Fatalf("kind %v key %v: LookupBatch (%+v,%v), want a miss", kind, pkt.Bytes, ws.acts[i], ws.matched[i])
			}
			if ex := tbl.Explain(pkt.Bytes); ex.Matched || !ex.DefaultUsed || ex.Action != want {
				t.Fatalf("kind %v key %v: Explain %+v, want the default", kind, pkt.Bytes, ex)
			}
		}
	}
}

func TestTableFull(t *testing.T) {
	tbl := NewTable("small", MatchRange, key1(), 1, Action{Type: ActionNop})
	if _, err := tbl.Insert(point(1, Action{})); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(point(2, Action{})); !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
}

// TestTernaryAgainstReference cross-checks table lookup against a direct
// scan for random entries and keys.
func TestTernaryAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := []FieldSpec{{Offset: 0, Width: 2}}
		tbl := NewTable("t", MatchTernary, specs, 0, Action{Type: ActionNop})
		type ref struct {
			prio        int
			value, mask []byte
			class       int
		}
		var refs []ref
		for i := 0; i < 8; i++ {
			mask := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			value := []byte{byte(rng.Intn(256)) & mask[0], byte(rng.Intn(256)) & mask[1]}
			prio := rng.Intn(20)
			class := rng.Intn(5)
			if _, err := tbl.Insert(Entry{
				Priority: prio, Value: value, Mask: mask,
				Action: Action{Type: ActionSetClass, Class: class},
			}); err != nil {
				return false
			}
			refs = append(refs, ref{prio, value, mask, class})
		}
		for p := 0; p < 100; p++ {
			key := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			// Reference: highest priority match, earliest insert on ties.
			best := -1
			bestClass := -1
			for _, r := range refs {
				if key[0]&r.mask[0] == r.value[0] && key[1]&r.mask[1] == r.value[1] && r.prio > best {
					best = r.prio
					bestClass = r.class
				}
			}
			act, matched := tbl.Lookup(key)
			if (best >= 0) != matched {
				return false
			}
			if matched && act.Class != bestClass {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineFlow(t *testing.T) {
	p := NewPipeline(4)
	class := NewTable("classify", MatchRange, key1(), 0, Action{Type: ActionDigest})
	if _, err := class.Insert(point(1, Action{Type: ActionSetClass, Class: 3})); err != nil {
		t.Fatal(err)
	}
	verdict := NewTable("verdict", MatchRange, key1(), 0, Action{Type: ActionAllow})
	if _, err := verdict.Insert(point(1, Action{Type: ActionDrop, Class: 3})); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTable(class); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTable(verdict); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTable(class); err == nil {
		t.Fatal("accepted duplicate table")
	}

	v := p.Process(&packet.Packet{Bytes: []byte{1}})
	if v.Allowed || v.Class != 3 || !v.Matched {
		t.Fatalf("verdict = %+v", v)
	}
	// Miss in classify -> digest queued, then verdict table allows.
	v = p.Process(&packet.Packet{Bytes: []byte{9}})
	if !v.Allowed || !v.Digested {
		t.Fatalf("miss verdict = %+v", v)
	}
	ds := p.DrainDigests(0)
	if len(ds) != 1 || ds[0].Table != "classify" {
		t.Fatalf("digests = %+v", ds)
	}
}

func TestPipelineDigestOverflow(t *testing.T) {
	p := NewPipeline(2)
	tbl := NewTable("d", MatchRange, key1(), 0, Action{Type: ActionDigest})
	if err := p.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Process(&packet.Packet{Bytes: []byte{byte(i)}})
	}
	if got := len(p.DrainDigests(0)); got != 2 {
		t.Fatalf("queued %d, want 2", got)
	}
	if p.DroppedDigests() != 3 {
		t.Fatalf("dropped %d, want 3", p.DroppedDigests())
	}
}

func TestPipelineTableAccess(t *testing.T) {
	p := NewPipeline(0)
	tbl := NewTable("x", MatchRange, key1(), 0, Action{Type: ActionNop})
	if err := p.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Table("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Table("y"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	if got := len(p.Tables()); got != 1 {
		t.Fatalf("Tables len %d", got)
	}
}

// hasHeader reports whether the parser located a header of that name.
func hasHeader(res ParseResult, name string) bool {
	return slices.ContainsFunc(res.Headers, func(h ParsedHeader) bool { return h.Name == name })
}

func TestStandardParserEthernet(t *testing.T) {
	parser, err := StandardParser(packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{Protocol: packet.ProtoTCP, TTL: 64}
	tcp := packet.TCP{SrcPort: 1, DstPort: 2}
	frame := eth.Marshal(nil)
	frame = ip.Marshal(frame, packet.TCPLen)
	frame = tcp.Marshal(frame)

	res := parser.Parse(frame)
	if !res.Accepted {
		t.Fatal("frame rejected")
	}
	for _, h := range []string{"ethernet", "ipv4", "tcp"} {
		if !hasHeader(res, h) {
			t.Fatalf("missing header %s in %+v", h, res.Headers)
		}
	}
	// Truncated frame must reject.
	res = parser.Parse(frame[:20])
	if res.Accepted {
		t.Fatal("truncated frame accepted")
	}
}

func TestStandardParserZigbee(t *testing.T) {
	parser, err := StandardParser(packet.LinkIEEE802154)
	if err != nil {
		t.Fatal(err)
	}
	mac := packet.IEEE802154{FrameType: packet.FrameData, PANID: 1, Dst: 2, Src: 3}
	nwk := packet.ZigbeeNWK{FrameType: packet.ZigbeeData, Dst: 2, Src: 3, Radius: 5, Seq: 1}
	frame := nwk.Marshal(mac.Marshal(nil))
	res := parser.Parse(frame)
	if !res.Accepted || !hasHeader(res, "nwk") {
		t.Fatalf("zigbee parse = %+v", res)
	}
	// Ack frame has no NWK header.
	ack := packet.IEEE802154{FrameType: packet.FrameAck, PANID: 1, Dst: 2, Src: 3}
	res = parser.Parse(ack.Marshal(nil))
	if !res.Accepted || hasHeader(res, "nwk") {
		t.Fatalf("ack parse = %+v", res)
	}
}

func TestStandardParserBLEAndUnknown(t *testing.T) {
	parser, err := StandardParser(packet.LinkBLE)
	if err != nil {
		t.Fatal(err)
	}
	pdu := packet.BLELinkLayer{AccessAddress: packet.BLEAdvAccessAddress, PDUType: packet.BLEAdvInd}
	res := parser.Parse(pdu.Marshal(nil))
	if !res.Accepted || !hasHeader(res, "ll") {
		t.Fatalf("ble parse = %+v", res)
	}
	if _, err := StandardParser(packet.LinkType(99)); err == nil {
		t.Fatal("accepted unknown link")
	}
}

func TestParserRejectsLoopsAndDanglingStates(t *testing.T) {
	loop, err := NewParser("a",
		&ParseState{
			Name:    "a",
			Extract: func([]byte, int) (int, error) { return 0, nil },
			Next:    func([]byte, int, int) string { return "a" },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res := loop.Parse([]byte{1}); res.Accepted {
		t.Fatal("looping parser accepted")
	}
	dangling, err := NewParser("a",
		&ParseState{
			Name:    "a",
			Extract: func([]byte, int) (int, error) { return 1, nil },
			Next:    func([]byte, int, int) string { return "ghost" },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res := dangling.Parse([]byte{1}); res.Accepted {
		t.Fatal("dangling transition accepted")
	}
	if _, err := NewParser("missing"); err == nil {
		t.Fatal("accepted undefined start state")
	}
	if _, err := NewParser("a",
		&ParseState{Name: "a", Extract: func([]byte, int) (int, error) { return 0, nil }, Next: func([]byte, int, int) string { return "" }},
		&ParseState{Name: "a", Extract: func([]byte, int) (int, error) { return 0, nil }, Next: func([]byte, int, int) string { return "" }},
	); err == nil {
		t.Fatal("accepted duplicate states")
	}
}

// TestTernaryChurnDeterminism guards the tuple-space rebuild: priority
// ties resolve to the earliest-inserted entry, cross-tuple ordering obeys
// priority, and both invariants survive Insert/Delete churn.
func TestTernaryChurnDeterminism(t *testing.T) {
	tbl := NewTable("acl", MatchTernary, key1(), 0, Action{Type: ActionNop})

	// Two entries with identical (value,mask) and identical priority:
	// the first inserted must win, deterministically.
	idA, err := tbl.Insert(Entry{Priority: 5, Value: []byte{0x40}, Mask: []byte{0xc0},
		Action: Action{Type: ActionDrop, Class: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Entry{Priority: 5, Value: []byte{0x40}, Mask: []byte{0xc0},
		Action: Action{Type: ActionDrop, Class: 2}}); err != nil {
		t.Fatal(err)
	}
	lookupClass := func() int {
		t.Helper()
		act, matched := tbl.Lookup([]byte{0x55})
		if !matched {
			t.Fatal("ternary miss")
		}
		return act.Class
	}
	for i := 0; i < 3; i++ {
		if got := lookupClass(); got != 1 {
			t.Fatalf("tie iteration %d: class %d, want first-inserted 1", i, got)
		}
	}

	// A higher-priority entry in a different tuple (mask) must win over
	// both, regardless of insertion order.
	idC, err := tbl.Insert(Entry{Priority: 9, Value: []byte{0x50}, Mask: []byte{0xf0},
		Action: Action{Type: ActionDrop, Class: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupClass(); got != 3 {
		t.Fatalf("cross-tuple priority: class %d, want 3", got)
	}

	// Deleting the cross-tuple winner must restore the tie winner...
	if err := tbl.Delete(idC); err != nil {
		t.Fatal(err)
	}
	if got := lookupClass(); got != 1 {
		t.Fatalf("after delete of high-priority entry: class %d, want 1", got)
	}
	// ...and deleting the tie winner must promote the second entry.
	if err := tbl.Delete(idA); err != nil {
		t.Fatal(err)
	}
	if got := lookupClass(); got != 2 {
		t.Fatalf("after delete of tie winner: class %d, want 2", got)
	}

	// Churn: reinsert the deleted pair in reverse order; insertion order
	// (not ID order) decides ties after every rebuild.
	if _, err := tbl.Insert(Entry{Priority: 9, Value: []byte{0x50}, Mask: []byte{0xf0},
		Action: Action{Type: ActionDrop, Class: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Entry{Priority: 5, Value: []byte{0x40}, Mask: []byte{0xc0},
		Action: Action{Type: ActionDrop, Class: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := lookupClass(); got != 3 {
		t.Fatalf("after churn: class %d, want 3", got)
	}
}

// TestRangeIndexMatchesScanUnderChurn: the compiled range index must make
// the same decision as the reference linear scan across random
// insert/delete churn.
func TestRangeIndexMatchesScanUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := []FieldSpec{{Name: "b0", Offset: 0, Width: 1}, {Name: "b2", Offset: 2, Width: 1}}
	tbl := NewTable("det", MatchRange, specs, 0, Action{Type: ActionNop})

	type row struct {
		id       uint64
		prio     int
		lo, hi   []byte
		class    int
		inserted int
	}
	var live []row
	seq := 0
	for step := 0; step < 60; step++ {
		if len(live) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(live))
			if err := tbl.Delete(live[i].id); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			lo := []byte{byte(rng.Intn(200)), byte(rng.Intn(200))}
			hi := []byte{lo[0] + byte(rng.Intn(56)), lo[1] + byte(rng.Intn(56))}
			r := row{prio: rng.Intn(5), lo: lo, hi: hi, class: seq, inserted: seq}
			seq++
			id, err := tbl.Insert(Entry{Priority: r.prio, Lo: lo, Hi: hi,
				Action: Action{Type: ActionDrop, Class: r.class}})
			if err != nil {
				t.Fatal(err)
			}
			r.id = id
			live = append(live, r)
		}

		// Reference: stable sort by descending priority (insertion order
		// breaks ties), first match wins.
		ref := func(key []byte) (int, bool) {
			bestPrio, bestIns, bestClass, found := 0, 0, 0, false
			for _, r := range live {
				if key[0] < r.lo[0] || key[0] > r.hi[0] || key[1] < r.lo[1] || key[1] > r.hi[1] {
					continue
				}
				if !found || r.prio > bestPrio || (r.prio == bestPrio && r.inserted < bestIns) {
					bestPrio, bestIns, bestClass, found = r.prio, r.inserted, r.class, true
				}
			}
			return bestClass, found
		}
		for trial := 0; trial < 40; trial++ {
			frame := []byte{byte(rng.Intn(256)), 0, byte(rng.Intn(256))}
			wantClass, wantHit := ref([]byte{frame[0], frame[2]})
			act, hit := tbl.Lookup(frame)
			if hit != wantHit || (hit && act.Class != wantClass) {
				t.Fatalf("step %d: lookup (%d,%v) != reference (%d,%v) for frame %v",
					step, act.Class, hit, wantClass, wantHit, frame)
			}
		}
	}
}

// TestTableProgramReplacesAtomically: Program swaps key layout, default
// action, and entries in one step and validates before mutating.
func TestTableProgramReplacesAtomically(t *testing.T) {
	tbl := NewTable("det", MatchRange, key1(), 2, Action{Type: ActionDigest})
	if _, err := tbl.Insert(Entry{Lo: []byte{0}, Hi: []byte{10}, Action: Action{Type: ActionDrop}}); err != nil {
		t.Fatal(err)
	}
	newKey := []FieldSpec{{Name: "b1", Offset: 1, Width: 1}}
	err := tbl.Program(newKey, Action{Type: ActionAllow}, rowsOf(tbl, []Entry{
		{Priority: 1, Lo: []byte{100}, Hi: []byte{200}, Action: Action{Type: ActionDrop, Class: 1}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if act, matched := tbl.Lookup([]byte{0, 150}); !matched || act.Type != ActionDrop {
		t.Fatalf("programmed entry missed: %+v %v", act, matched)
	}
	if act, matched := tbl.Lookup([]byte{0, 50}); matched || act.Type != ActionAllow {
		t.Fatalf("default after Program: %+v %v", act, matched)
	}

	// A bad batch must leave the table untouched.
	if err := tbl.Program(key1(), Action{Type: ActionDigest}, rowsOf(tbl, []Entry{
		{Lo: []byte{5, 5}, Hi: []byte{6, 6}, Action: Action{Type: ActionDrop}},
	})); err == nil {
		t.Fatal("Program accepted entries wider than the key")
	}
	if act, matched := tbl.Lookup([]byte{0, 150}); !matched || act.Type != ActionDrop {
		t.Fatalf("failed Program corrupted table: %+v %v", act, matched)
	}
	// MaxEntries still enforced.
	if err := tbl.Program(key1(), Action{Type: ActionAllow}, rowsOf(tbl, make([]Entry, 3))); err == nil {
		t.Fatal("Program accepted more than MaxEntries rows")
	}
}

// rowsOf builds entries into the program tbl.Program adopts, the way
// Replace does for the table's kind.
func rowsOf(tbl *Table, entries []Entry) *Rows {
	r := &Rows{}
	r.Grow(len(entries), 2*tbl.width()*len(entries))
	for i := range entries {
		r.addEntry(tbl, &entries[i])
	}
	return r
}

// TestProgramOwnsReplaceCopies is the ownership rule of a full swap.
// Replace leaves the caller's slice bit for bit as it was — ids, order keys
// and counters are written into rows of the table's own — so the same slice
// programs a second table, whose counters are its own. Program adopts the
// builder's rows themselves — the table's rows are &slab[i] — and hands the
// builder back empty; a refused one comes back as it went in.
func TestProgramOwnsReplaceCopies(t *testing.T) {
	rows := make([]Entry, 64)
	for i := range rows {
		rows[i] = Entry{Priority: i % 4, Lo: []byte{byte(i)}, Hi: []byte{byte(i)}, Action: Action{Type: ActionDrop, Class: i}}
	}
	before := slices.Clone(rows)
	a := NewTable("a", MatchRange, key1(), 0, Action{Type: ActionAllow})
	b := NewTable("b", MatchRange, key1(), 0, Action{Type: ActionAllow})
	for _, tbl := range []*Table{a, b} {
		if err := tbl.Replace(rows); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, before) {
			t.Fatalf("Replace on %s wrote into the caller's slice", tbl.Name)
		}
	}
	for i := 0; i < 3; i++ {
		a.Lookup([]byte{7})
	}
	b.Lookup([]byte{7})
	hits := func(tbl *Table) (n uint64) {
		for _, c := range tbl.EntrySnapshots() {
			n += c.Hits
		}
		return n
	}
	if ha, hb := hits(a), hits(b); ha != 3 || hb != 1 || !reflect.DeepEqual(rows, before) {
		t.Fatalf("two tables replaced from one slice count %d and %d hits, want 3 and 1 and none in the slice", ha, hb)
	}

	built := rowsOf(a, rows)
	slab := built.rows
	if err := a.Program(key1(), Action{Type: ActionDigest}, built); err != nil {
		t.Fatal(err)
	}
	for i, e := range a.prog {
		if e != &slab[i] {
			t.Fatalf("after Program, row %d is a copy of the builder's", i)
		}
	}
	if !reflect.DeepEqual(*built, Rows{}) {
		t.Fatalf("an adopted builder still holds %d rows", len(built.rows))
	}
	if slab[0].ID == 0 || slab[63].ord != 64*progOrdStride {
		t.Fatalf("Program did not number the builder's own rows: id %d, ord %#x", slab[0].ID, slab[63].ord)
	}
	if act, matched := a.Lookup([]byte{9}); !matched || act.Class != 9 || slab[9].hits != 1 {
		t.Fatalf("lookup %+v (matched %v) counted %d hits on the builder's row", act, matched, slab[9].hits)
	}

	// A refused Program hands the builder back unwritten: row 5 has the
	// wrong width, the rows before it are valid, none was numbered.
	bad := slices.Clone(before)
	bad[5].Hi = []byte{1, 2}
	refused, want := rowsOf(a, bad), rowsOf(a, bad)
	count, hash := a.ProgramSignature()
	if err := a.Program(key1(), Action{Type: ActionAllow}, refused); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("err = %v, want ErrBadEntry", err)
	}
	if c, h := a.ProgramSignature(); !reflect.DeepEqual(refused.rows, want.rows) || !reflect.DeepEqual(refused.odd, want.odd) ||
		c != count || h != hash || a.DefaultAction.Type != ActionDigest {
		t.Fatal("a refused Program wrote into the builder or the table")
	}
}

// TestEntryDirectCounters checks the P4-style per-entry packets/bytes
// direct counters: they track matched frames only, survive reindexing
// from later Inserts, and surface through EntrySnapshots and Stats.
func TestEntryDirectCounters(t *testing.T) {
	tbl := NewTable("det", MatchRange, key1(), 0, Action{Type: ActionNop})
	id, err := tbl.Insert(Entry{
		Priority: 1, Lo: []byte{10}, Hi: []byte{20},
		Action: Action{Type: ActionDrop, Class: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{{15, 1, 2}, {12}, {99}} // two hits (3B + 1B), one miss
	for _, f := range frames {
		tbl.Lookup(f)
	}
	// A later Insert rebuilds the lookup state; counters must persist.
	if _, err := tbl.Insert(Entry{Priority: 0, Lo: []byte{40}, Hi: []byte{50}, Action: Action{Type: ActionAllow}}); err != nil {
		t.Fatal(err)
	}
	tbl.Lookup([]byte{18, 9}) // third hit, 2 bytes

	snaps := tbl.EntrySnapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d entries, want 2", len(snaps))
	}
	var got *EntryCounters
	for i := range snaps {
		if snaps[i].ID == id {
			got = &snaps[i]
		}
	}
	if got == nil {
		t.Fatalf("entry %d missing from snapshots %+v", id, snaps)
	}
	if got.Hits != 3 || got.Bytes != 6 {
		t.Fatalf("entry counters hits=%d bytes=%d, want 3/6", got.Hits, got.Bytes)
	}
	if got.Action.Type != ActionDrop || got.Action.Class != 2 || got.Priority != 1 {
		t.Fatalf("snapshot identity %+v", got)
	}
	st := tbl.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.HitBytes != 6 {
		t.Fatalf("table stats %+v, want hits=3 misses=1 hitbytes=6", st)
	}
}

// TestDigestQueueAccounting checks the drained-vs-dropped bookkeeping:
// queued == drained + depth at every step, and overflow loss is counted
// instead of silent.
func TestDigestQueueAccounting(t *testing.T) {
	p := NewPipeline(2)
	tbl := NewTable("d", MatchRange, key1(), 0, Action{Type: ActionDigest})
	if err := p.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	check := func(depth int, queued, drained, dropped uint64) {
		t.Helper()
		qs := p.DigestQueueStats()
		if qs.Depth != depth || qs.Queued != queued || qs.Drained != drained || qs.Dropped != dropped {
			t.Fatalf("queue stats %+v, want depth=%d queued=%d drained=%d dropped=%d",
				qs, depth, queued, drained, dropped)
		}
		if qs.Queued != qs.Drained+uint64(qs.Depth) {
			t.Fatalf("accounting broken: %+v", qs)
		}
		if qs.Capacity != 2 {
			t.Fatalf("capacity = %d, want 2", qs.Capacity)
		}
	}
	check(0, 0, 0, 0)
	for i := 0; i < 5; i++ {
		p.Process(&packet.Packet{Bytes: []byte{byte(i)}})
	}
	check(2, 2, 0, 3)
	if got := len(p.DrainDigests(1)); got != 1 {
		t.Fatalf("drained %d, want 1", got)
	}
	check(1, 2, 1, 3)
	p.Process(&packet.Packet{Bytes: []byte{7}})
	if got := len(p.DrainDigests(0)); got != 2 {
		t.Fatalf("drained %d, want 2", got)
	}
	check(0, 3, 3, 3)
}
