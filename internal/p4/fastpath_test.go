package p4

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"p4guard/internal/packet"
)

func randFrames(rng *rand.Rand, n, size int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		b := make([]byte, size)
		rng.Read(b)
		// Bias some bytes into narrow ranges so table hits happen often.
		b[0] = byte(rng.Intn(8))
		if size > 3 {
			b[3] = byte(rng.Intn(4))
		}
		pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: b}
	}
	return pkts
}

func fourByteKey() []FieldSpec {
	return []FieldSpec{{Name: "k", Offset: 0, Width: 2}, {Name: "k2", Offset: 3, Width: 2}}
}

// twinTables builds two identically-programmed tables so the batch path
// and the per-packet reference can advance separate counters that must
// end up equal.
func twinTables(t *testing.T, kind MatchKind, entries []Entry) (*Table, *Table) {
	t.Helper()
	a := NewTable("a", kind, fourByteKey(), 0, Action{Type: ActionAllow, Class: 9})
	b := NewTable("b", kind, fourByteKey(), 0, Action{Type: ActionAllow, Class: 9})
	if err := a.Program(fourByteKey(), Action{Type: ActionAllow, Class: 9}, rowsOf(a, entries)); err != nil {
		t.Fatal(err)
	}
	if err := b.Program(fourByteKey(), Action{Type: ActionAllow, Class: 9}, rowsOf(b, entries)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func kindEntries(t *testing.T, rng *rand.Rand, kind MatchKind, n int) []Entry {
	t.Helper()
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		act := Action{Type: ActionDrop, Class: i % 5}
		if i%2 == 0 {
			act = Action{Type: ActionAllow, Class: i % 5}
		}
		switch kind {
		case MatchTernary:
			mask := []byte{0xff, 0x00, 0xff, 0x00}
			if i%3 == 0 {
				mask = []byte{0xff, 0xff, 0x00, 0x00}
			}
			val := []byte{byte(i % 8), byte(rng.Intn(256)), byte(i % 4), byte(rng.Intn(256))}
			for j := range val {
				val[j] &= mask[j]
			}
			entries = append(entries, Entry{Priority: rng.Intn(4), Value: val, Mask: mask, Action: act})
		case MatchRange:
			lo := []byte{byte(i % 8), 0, byte(i % 4), 0}
			hi := []byte{byte(i % 8), 255, byte(i % 4), byte(128 + rng.Intn(128))}
			entries = append(entries, Entry{Priority: rng.Intn(4), Lo: lo, Hi: hi, Action: act})
		}
	}
	return entries
}

func allIdx(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// burstOf runs every packet of pkts through ProcessBatch on p and returns
// the verdicts.
func burstOf(p *Pipeline, pkts []*packet.Packet, ws *BatchWorkspace) []Verdict {
	out := make([]Verdict, len(pkts))
	p.ProcessBatch(pkts, allIdx(len(pkts)), ws, out)
	return out
}

// lookupVerdict is the verdict Lookup's answer makes.
func lookupVerdict(t *Table, frame []byte) Verdict { return verdictOf(t.Lookup(frame)) }

// TestLookupBatchMatchesLookup drives both match kinds through the burst
// engine: it must return the verdict of Lookup per packet, and the twin
// tables' counters (table hit/miss and per-entry hits/bytes) must advance
// identically.
func TestLookupBatchMatchesLookup(t *testing.T) {
	for _, kind := range []MatchKind{MatchTernary, MatchRange} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind)))
			batchT, refT := twinTables(t, kind, kindEntries(t, rng, kind, 40))
			pkts := randFrames(rng, 500, 32)
			p := NewPipeline(batchT, 0)
			var ws BatchWorkspace
			// Several batches so the flow cache serves warm hits too.
			for round := 0; round < 3; round++ {
				got := burstOf(p, pkts, &ws)
				for i, pkt := range pkts {
					if want := lookupVerdict(refT, pkt.Bytes); got[i] != want {
						t.Fatalf("round %d pkt %d: batch %+v != lookup %+v", round, i, got[i], want)
					}
				}
			}
			bs, rs := batchT.Stats(), refT.Stats()
			bs.Name, rs.Name = "", ""
			if bs != rs {
				t.Fatalf("table stats diverged: batch %+v ref %+v", bs, rs)
			}
			bEnt, rEnt := batchT.EntrySnapshots(), refT.EntrySnapshots()
			for i := range bEnt {
				if bEnt[i].Hits != rEnt[i].Hits || bEnt[i].Bytes != rEnt[i].Bytes {
					t.Fatalf("entry %d counters diverged: batch %+v ref %+v", i, bEnt[i], rEnt[i])
				}
			}
		})
	}
}

// TestLookupBatchUnderChurn reprograms and mutates the table between
// bursts: every post-change burst must agree with fresh per-packet
// lookups, proving the flow cache's generation tagging invalidates on
// insert, delete, and full program.
func TestLookupBatchUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := NewTable("churn", MatchTernary, fourByteKey(), 0, Action{Type: ActionDigest})
	pkts := randFrames(rng, 200, 24)
	p := NewPipeline(tab, 0)
	var ws BatchWorkspace
	var ids []uint64
	for round := 0; round < 12; round++ {
		switch round % 4 {
		case 0: // insert
			e := kindEntries(t, rng, MatchTernary, 1)[0]
			id, err := tab.Insert(e)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		case 1: // full reprogram
			if err := tab.Program(fourByteKey(), Action{Type: ActionDigest},
				rowsOf(tab, kindEntries(t, rng, MatchTernary, 10+round))); err != nil {
				t.Fatal(err)
			}
			ids = nil
		case 2: // delete when possible
			if len(ids) > 0 {
				if err := tab.Delete(ids[0]); err != nil {
					t.Fatal(err)
				}
				ids = ids[1:]
			}
		}
		got := burstOf(p, pkts, &ws)
		for i, pkt := range pkts {
			// Lookup moves counters; only the verdicts must agree.
			if want := lookupVerdict(tab, pkt.Bytes); got[i] != want {
				t.Fatalf("round %d pkt %d: batch %+v != lookup %+v", round, i, got[i], want)
			}
		}
	}
}

// TestProcessBatchMatchesProcess runs a digest-on-miss detector's
// pipeline over a burst and checks batch verdicts and digest accounting
// against the per-packet engine.
func TestProcessBatchMatchesProcess(t *testing.T) {
	build := func() *Pipeline {
		rng := rand.New(rand.NewSource(9))
		det := NewTable("det", MatchRange, fourByteKey(), 0, Action{Type: ActionDigest})
		if err := det.Program(fourByteKey(), Action{Type: ActionDigest},
			rowsOf(det, kindEntries(t, rng, MatchRange, 12))); err != nil {
			t.Fatal(err)
		}
		return NewPipeline(det, 64)
	}
	batchP, refP := build(), build()
	pkts := randFrames(rand.New(rand.NewSource(10)), 400, 24)
	var ws BatchWorkspace
	out := make([]Verdict, len(pkts))
	batchP.ProcessBatch(pkts, allIdx(len(pkts)), &ws, out)
	for i, pkt := range pkts {
		if ref := refP.Process(pkt); out[i] != ref {
			t.Fatalf("pkt %d: batch %+v != reference %+v", i, out[i], ref)
		}
	}
	bq, rq := batchP.DigestQueueStats(), refP.DigestQueueStats()
	if bq.Offered != rq.Offered || bq.Dropped != rq.Dropped || bq.Depth != rq.Depth {
		t.Fatalf("digest accounting diverged: batch %+v ref %+v", bq, rq)
	}
	if bq.Offered != bq.Drained+bq.Dropped+uint64(bq.Depth) {
		t.Fatalf("digest invariants violated: %+v", bq)
	}
	if bq.Dropped == 0 {
		t.Fatalf("the burst never overflowed the queue: %+v", bq)
	}
	// Drained digests carry the same keys, under the same offsets, in the
	// same order.
	bd, rd := batchP.DrainDigests(0), refP.DrainDigests(0)
	if len(bd) != len(rd) {
		t.Fatalf("drained %d vs %d digests", len(bd), len(rd))
	}
	for i := range bd {
		if !bytes.Equal(bd[i].Key, rd[i].Key) || !slices.Equal(bd[i].Offsets, rd[i].Offsets) {
			t.Fatalf("digest %d: batch %v@%v != ref %v@%v", i, bd[i].Key, bd[i].Offsets, rd[i].Key, rd[i].Offsets)
		}
	}
}

// TestBurstDigestsInPacketOrder: a burst's misses resolve on two paths —
// A from the flow cache, where an earlier burst left it, B and C from the
// index after the pass — and their digests must still queue in packet
// order, B, A, C, with the verdicts and counters a Process per packet
// leaves.
func TestBurstDigestsInPacketOrder(t *testing.T) {
	build := func() *Pipeline {
		det := NewTable("det", MatchRange, fourByteKey(), 0, Action{Type: ActionDigest})
		if err := det.Program(fourByteKey(), Action{Type: ActionDigest},
			rowsOf(det, kindEntries(t, rand.New(rand.NewSource(2)), MatchRange, 8))); err != nil {
			t.Fatal(err)
		}
		return NewPipeline(det, 64)
	}
	frame := func(v byte) *packet.Packet { // first key byte 0xf0 up: no row's
		return &packet.Packet{Bytes: []byte{0xf0 | v, v, 0, v, v, 0}}
	}
	a, b, c := frame(1), frame(2), frame(3)
	batchP, refP := build(), build()
	var ws BatchWorkspace
	for _, pkts := range [][]*packet.Packet{{a}, {b, a, c}} {
		got := burstOf(batchP, pkts, &ws)
		for i, pkt := range pkts {
			if want := refP.Process(pkt); got[i] != want || !want.Digested {
				t.Fatalf("burst of %d, pkt %d: batch %+v, Process %+v, want a digest", len(pkts), i, got[i], want)
			}
		}
	}
	bd, rd := batchP.DrainDigests(0), refP.DrainDigests(0)
	want := [][]byte{{0xf1, 1, 1, 1}, {0xf2, 2, 2, 2}, {0xf1, 1, 1, 1}, {0xf3, 3, 3, 3}}
	if len(bd) != len(want) || len(rd) != len(want) {
		t.Fatalf("drained %d digests, Process queued %d, want %d", len(bd), len(rd), len(want))
	}
	for i := range want {
		if !bytes.Equal(bd[i].Key, want[i]) || !bytes.Equal(rd[i].Key, want[i]) {
			t.Fatalf("digest %d: batch %x, Process %x, want %x", i, bd[i].Key, rd[i].Key, want[i])
		}
	}
	bs, rs := batchP.table.Stats(), refP.table.Stats()
	bs.Name, rs.Name = "", ""
	if bs != rs || bs.Misses != 4 {
		t.Fatalf("table stats: batch %+v, Process %+v", bs, rs)
	}
	if bq, rq := batchP.DigestQueueStats(), refP.DigestQueueStats(); bq != rq {
		t.Fatalf("digest accounting: batch %+v, Process %+v", bq, rq)
	}
}

// TestQueueDigestBatchOverflow fills the queue past capacity in one
// batch: accounting must mirror per-digest enqueueing exactly.
func TestQueueDigestBatchOverflow(t *testing.T) {
	p := NewPipeline(NewTable("d", MatchRange, key1(), 0, Action{Type: ActionDigest}), 4)
	p.queueKeys(key1(), make([]byte, 10), 10, time.Now())
	st := p.DigestQueueStats()
	if st.Offered != 10 || st.Dropped != 6 || st.Depth != 4 {
		t.Fatalf("overflow accounting = %+v", st)
	}
	for _, d := range p.DrainDigests(0) {
		if d.At.IsZero() {
			t.Fatal("batched digest missing enqueue timestamp")
		}
	}
}

// TestDrainDigestsHandsOutCopies: the queue's storage outlives a drain and
// the next burst refills it, so a drained key must be a copy — what a
// later miss queues does not change a digest already handed out — and a
// steady enqueue/drain cycle, to empty or to a constant depth, allocates
// the two things DrainDigests returns, the digests and one buffer for
// their keys, and nothing else. The accounting identity holds throughout.
func TestDrainDigestsHandsOutCopies(t *testing.T) {
	layout := []FieldSpec{{Name: "k", Offset: 2, Width: 2}}
	p := NewPipeline(NewTable("d", MatchRange, layout, 0, Action{Type: ActionDigest}), 64)
	keys := func(v byte) []byte { return bytes.Repeat([]byte{v}, 16) } // 8 keys of 2 bytes
	p.queueKeys(layout, keys(1), 8, time.Now())
	first := p.DrainDigests(5) // partial: three stay queued
	p.queueKeys(layout, keys(2), 8, time.Now())
	for i, d := range first {
		if !bytes.Equal(d.Key, []byte{1, 1}) || !slices.Equal(d.Offsets, []int{2, 3}) {
			t.Fatalf("digest %d reads %v@%v after more keys were queued, want [1 1]@[2 3]", i, d.Key, d.Offsets)
		}
	}
	if rest := p.DrainDigests(0); len(rest) != 11 || !bytes.Equal(rest[0].Key, []byte{1, 1}) || !bytes.Equal(rest[3].Key, []byte{2, 2}) {
		t.Fatalf("the queue kept %d digests out of order: %+v", len(rest), rest)
	}

	for _, depth := range []int{0, 5} {
		p.queueKeys(layout, keys(3), depth, time.Now())
		burst := keys(4)
		cycle := func() {
			p.queueKeys(layout, burst, 8, time.Now())
			p.DrainDigests(8)
		}
		for i := 0; i < 64; i++ { // the storage reaches its size
			cycle()
		}
		if got := testing.AllocsPerRun(200, cycle); got != 2 {
			t.Fatalf("an enqueue/drain cycle at depth %d allocates %v times, want only the digests and their keys", depth, got)
		}
		st := p.DigestQueueStats()
		if st.Depth != depth || st.Offered != st.Drained+st.Dropped+uint64(st.Depth) || st.Dropped != 0 {
			t.Fatalf("depth %d: accounting = %+v", depth, st)
		}
		p.DrainDigests(0)
	}
}

// TestDrainDigestsLetsGoOfPackets: a digest holds the key the lookup
// gathered, not the frame it came from, so neither a queued nor a drained
// digest keeps a caller's packet reachable — on a switch gone idle after a
// burst, the queue pins no full frames — whether the miss came through
// Process or ProcessBatch, and each digest still reads its frame's key.
func TestDrainDigestsLetsGoOfPackets(t *testing.T) {
	det := NewTable("det", MatchRange, nil, 0, Action{Type: ActionDigest})
	if err := det.Program(fourByteKey(), Action{Type: ActionDigest}, &Rows{}); err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(det, 64)
	freed := make(chan struct{}, 8)
	var want [][]byte
	func() { // the packets live in no frame of this test's once queued
		frames := randFrames(rand.New(rand.NewSource(5)), 8, 1500)
		for _, pkt := range frames {
			want = append(want, []byte{pkt.Bytes[0], pkt.Bytes[1], pkt.Bytes[3], pkt.Bytes[4]})
			runtime.SetFinalizer(pkt, func(*packet.Packet) { freed <- struct{}{} })
		}
		for _, pkt := range frames[:4] {
			p.Process(pkt)
		}
		var ws BatchWorkspace
		p.ProcessBatch(frames[4:], allIdx(4), &ws, make([]Verdict, 4))
	}()
	if st := p.DigestQueueStats(); st.Depth != 8 || st.Dropped != 0 {
		t.Fatalf("misses not all queued: %+v", st)
	}
	for got, tries := 0, 0; got < 8; tries++ {
		if tries == 100 {
			t.Fatalf("%d of 8 packets collected: the digest queue still holds the rest", got)
		}
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		}
	}
	ds := append(p.DrainDigests(5), p.DrainDigests(0)...) // partial, then the rest
	if len(ds) != 8 {
		t.Fatalf("drained %d digests, want 8", len(ds))
	}
	for i, d := range ds {
		if !bytes.Equal(d.Key, want[i]) || !slices.Equal(d.Offsets, []int{0, 1, 3, 4}) {
			t.Fatalf("digest %d: %v@%v, want %v@[0 1 3 4]", i, d.Key, d.Offsets, want[i])
		}
	}
}

// TestDigestLayoutDrops: a key means something only under the offsets it
// was gathered at, so the queue drops, and counts, a miss on a table with
// no key layout yet, whatever a program that changes the layout finds
// queued, and keys offered under a layout the table no longer has. A
// program that keeps the offsets keeps the queue. Every step keeps
// Offered == Drained + Dropped + Depth, on Process and ProcessBatch alike.
func TestDigestLayoutDrops(t *testing.T) {
	det := NewTable("det", MatchRange, nil, 0, Action{Type: ActionDigest})
	p := NewPipeline(det, 64)
	var ws BatchWorkspace
	frames := randFrames(rand.New(rand.NewSource(4)), 6, 8)
	run := func() { // three misses by Process, three by ProcessBatch
		for _, pkt := range frames[:3] {
			p.Process(pkt)
		}
		p.ProcessBatch(frames[3:], allIdx(3), &ws, make([]Verdict, 3))
	}
	check := func(step string, offered, dropped uint64, depth int) {
		t.Helper()
		st := p.DigestQueueStats()
		if st.Offered != offered || st.Dropped != dropped || st.Depth != depth || st.Offered != st.Drained+st.Dropped+uint64(st.Depth) {
			t.Fatalf("%s: %+v, want offered=%d dropped=%d depth=%d", step, st, offered, dropped, depth)
		}
	}
	program := func(key []FieldSpec) {
		t.Helper()
		if err := det.Program(key, Action{Type: ActionDigest}, &Rows{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	check("before the first program", 6, 6, 0)
	program(fourByteKey())
	run()
	check("programmed", 12, 6, 6)
	program(fourByteKey()) // new specs, same bytes
	check("reprogrammed at the same offsets", 12, 6, 6)
	p.queueKeys(key1(), make([]byte, 2), 2, time.Now())
	check("keys offered under a stale layout", 14, 8, 6)
	program(key1())
	check("reprogrammed at other offsets", 14, 14, 0)
	run()
	ds := p.DrainDigests(0)
	check("drained", 20, 14, 0)
	for i, d := range ds {
		if want := frames[i].Bytes[:1]; !bytes.Equal(d.Key, want) || !slices.Equal(d.Offsets, []int{0}) {
			t.Fatalf("digest %d: %v@%v, want %v@[0]", i, d.Key, d.Offsets, want)
		}
	}
}

// TestLookupBatchWideKeySkipsCache programs keys wider than the flow
// cache can hold; the burst engine must still agree with Lookup via the
// index path. The 80-byte ternary key is also wider than any fixed
// scratch the burst path could carry for the store's lane masking: it
// must be sized by the key.
func TestLookupBatchWideKeySkipsCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		kind  MatchKind
		width int
	}{{MatchRange, 24}, {MatchTernary, 24}, {MatchTernary, 80}} {
		t.Run(fmt.Sprintf("%v/width=%d", tc.kind, tc.width), func(t *testing.T) {
			wide := []FieldSpec{{Name: "w", Offset: 0, Width: tc.width}}
			tab := NewTable("wide", tc.kind, wide, 0, Action{Type: ActionDrop, Class: 1})
			val := make([]byte, tc.width)
			rng.Read(val)
			e := Entry{Lo: val, Hi: val, Action: Action{Type: ActionAllow, Class: 2}}
			if tc.kind == MatchTernary {
				e = Entry{Value: val, Mask: bytes.Repeat([]byte{0xff}, tc.width), Action: e.Action}
			}
			if _, err := tab.Insert(e); err != nil {
				t.Fatal(err)
			}
			hitPkt := &packet.Packet{Bytes: append(append([]byte(nil), val...), 0xaa)}
			missPkt := &packet.Packet{Bytes: make([]byte, tc.width+8)}
			pkts := []*packet.Packet{hitPkt, missPkt, hitPkt}
			p := NewPipeline(tab, 0)
			var ws BatchWorkspace
			active, out := allIdx(len(pkts)), make([]Verdict, len(pkts))
			p.ProcessBatch(pkts, active, &ws, out)
			if !out[0].Matched || out[1].Matched {
				t.Fatalf("batch matched (%v,%v), want the row's own key to hit and the zero key to miss", out[0].Matched, out[1].Matched)
			}
			for i, pkt := range pkts {
				if want := lookupVerdict(tab, pkt.Bytes); out[i] != want {
					t.Fatalf("pkt %d: batch %+v != lookup %+v", i, out[i], want)
				}
			}
			// Sized once, the scratch is kept: a second burst allocates nothing.
			if n := testing.AllocsPerRun(5, func() { p.ProcessBatch(pkts, active, &ws, out) }); n != 0 {
				t.Fatalf("steady-state wide-key burst allocates %.0f times", n)
			}
		})
	}
}
