package p4

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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

// TestLookupBatchMatchesLookup drives both match kinds: the batched
// resolver must return the same action/matched per packet as Lookup,
// and the twin tables' counters (table hit/miss and per-entry
// hits/bytes) must advance identically.
func TestLookupBatchMatchesLookup(t *testing.T) {
	for _, kind := range []MatchKind{MatchTernary, MatchRange} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind)))
			batchT, refT := twinTables(t, kind, kindEntries(t, rng, kind, 40))
			pkts := randFrames(rng, 500, 32)
			var ws BatchWorkspace
			// Several batches so the flow cache serves warm hits too.
			for round := 0; round < 3; round++ {
				active := allIdx(len(pkts))
				batchT.LookupBatch(pkts, active, &ws, 0)
				for i, pkt := range pkts {
					wantAct, wantMatched := refT.Lookup(pkt.Bytes)
					if ws.acts[i] != wantAct || ws.matched[i] != wantMatched {
						t.Fatalf("round %d pkt %d: batch (%+v,%v) != lookup (%+v,%v)",
							round, i, ws.acts[i], ws.matched[i], wantAct, wantMatched)
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
// batches: every post-change batch must agree with fresh per-packet
// lookups, proving the flow cache's generation tagging invalidates on
// insert, delete, and full program.
func TestLookupBatchUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := NewTable("churn", MatchTernary, fourByteKey(), 0, Action{Type: ActionDigest})
	pkts := randFrames(rng, 200, 24)
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
		active := allIdx(len(pkts))
		tab.LookupBatch(pkts, active, &ws, 0)
		for i, pkt := range pkts {
			// Lookup moves counters; only action/matched identity matters.
			wantAct, wantMatched := tab.Lookup(pkt.Bytes)
			if ws.acts[i] != wantAct || ws.matched[i] != wantMatched {
				t.Fatalf("round %d pkt %d: batch (%+v,%v) != lookup (%+v,%v)",
					round, i, ws.acts[i], ws.matched[i], wantAct, wantMatched)
			}
		}
	}
}

// TestRunTablesBatchMatchesRunTables builds a multi-table pipeline
// (set-class, digest-on-miss detector, terminal allow/drop) and checks
// batch verdicts and digest accounting against the per-packet engine.
func TestRunTablesBatchMatchesRunTables(t *testing.T) {
	build := func() *Pipeline {
		rng := rand.New(rand.NewSource(9))
		p := NewPipeline(64)
		cls := NewTable("classify", MatchTernary, fourByteKey(), 0, Action{Type: ActionNop})
		if err := cls.Program(fourByteKey(), Action{Type: ActionNop}, rowsOf(cls, []Entry{
			{Priority: 1, Value: []byte{1, 0, 0, 0}, Mask: []byte{0xff, 0, 0, 0}, Action: Action{Type: ActionSetClass, Class: 3}},
			{Priority: 1, Value: []byte{2, 0, 0, 0}, Mask: []byte{0xff, 0, 0, 0}, Action: Action{Type: ActionDrop, Class: 4}},
		})); err != nil {
			t.Fatal(err)
		}
		det := NewTable("det", MatchRange, fourByteKey(), 0, Action{Type: ActionDigest})
		if err := det.Program(fourByteKey(), Action{Type: ActionDigest},
			rowsOf(det, kindEntries(t, rng, MatchRange, 12))); err != nil {
			t.Fatal(err)
		}
		if err := p.AddTable(cls); err != nil {
			t.Fatal(err)
		}
		if err := p.AddTable(det); err != nil {
			t.Fatal(err)
		}
		return p
	}
	batchP, refP := build(), build()
	pkts := randFrames(rand.New(rand.NewSource(10)), 400, 24)
	var ws BatchWorkspace
	out := make([]Verdict, len(pkts))
	batchP.RunTablesBatch(batchP.TableSnapshot(), pkts, allIdx(len(pkts)), &ws, out)
	for i, pkt := range pkts {
		if ref := refP.Process(pkt); out[i] != ref {
			t.Fatalf("pkt %d: batch %+v != reference %+v", i, out[i], ref)
		}
	}
	bq, rq := batchP.DigestQueueStats(), refP.DigestQueueStats()
	if bq.Offered != rq.Offered || bq.Queued != rq.Queued || bq.Dropped != rq.Dropped || bq.Depth != rq.Depth {
		t.Fatalf("digest accounting diverged: batch %+v ref %+v", bq, rq)
	}
	if bq.Queued != bq.Drained+uint64(bq.Depth) || bq.Offered != bq.Drained+bq.Dropped+uint64(bq.Depth) {
		t.Fatalf("digest invariants violated: %+v", bq)
	}
	// Drained digests reference the same packets in the same order.
	bd, rd := batchP.DrainDigests(0), refP.DrainDigests(0)
	if len(bd) != len(rd) {
		t.Fatalf("drained %d vs %d digests", len(bd), len(rd))
	}
	for i := range bd {
		if bd[i].Pkt != rd[i].Pkt || bd[i].Table != rd[i].Table {
			t.Fatalf("digest %d: batch {%s %p} != ref {%s %p}", i, bd[i].Table, bd[i].Pkt, rd[i].Table, rd[i].Pkt)
		}
	}
}

// TestQueueDigestBatchOverflow fills the queue past capacity in one
// batch: accounting must mirror per-digest enqueueing exactly.
func TestQueueDigestBatchOverflow(t *testing.T) {
	p := NewPipeline(4)
	ds := make([]Digest, 10)
	for i := range ds {
		ds[i] = Digest{Table: "t", Pkt: &packet.Packet{}}
	}
	p.queueDigestBatch(ds)
	st := p.DigestQueueStats()
	if st.Offered != 10 || st.Queued != 4 || st.Dropped != 6 || st.Depth != 4 {
		t.Fatalf("overflow accounting = %+v", st)
	}
	for _, d := range p.DrainDigests(0) {
		if d.At.IsZero() {
			t.Fatal("batched digest missing enqueue timestamp")
		}
	}
}

// TestDrainDigestsLetsGoOfPackets: the queue's array outlives a drain, so
// a drained packet must not stay reachable through it — on a switch gone
// idle after a burst that was up to a queue of full frames — and the array
// must be the one the next burst fills: a steady enqueue/drain cycle, to
// empty or to a constant depth, allocates the slice DrainDigests returns
// and nothing else. The accounting identity holds throughout.
func TestDrainDigestsLetsGoOfPackets(t *testing.T) {
	p := NewPipeline(64)
	freed := make(chan struct{}, 8)
	func() { // the packets live in no frame of this test's once queued
		for i := 0; i < 8; i++ {
			pkt := &packet.Packet{Bytes: make([]byte, 1500)}
			runtime.SetFinalizer(pkt, func(*packet.Packet) { freed <- struct{}{} })
			p.queueDigest(Digest{Table: "t", Pkt: pkt})
		}
		p.DrainDigests(5) // partial: three stay queued
		p.DrainDigests(0)
	}()
	for got, tries := 0, 0; got < 8; tries++ {
		if tries == 100 {
			t.Fatalf("%d of 8 drained packets collected: the queue still holds the rest", got)
		}
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		}
	}

	ds := make([]Digest, 8)
	for i := range ds {
		ds[i] = Digest{Table: "t", Pkt: &packet.Packet{}}
	}
	for _, depth := range []int{0, 5} {
		p.queueDigestBatch(ds[:depth])
		cycle := func() {
			p.queueDigestBatch(ds)
			p.DrainDigests(len(ds))
		}
		for i := 0; i < 64; i++ { // the array reaches its size
			cycle()
		}
		if got := testing.AllocsPerRun(200, cycle); got != 1 {
			t.Fatalf("an enqueue/drain cycle at depth %d allocates %v times, want only the slice handed out", depth, got)
		}
		st := p.DigestQueueStats()
		if st.Depth != depth || st.Offered != st.Drained+st.Dropped+uint64(st.Depth) || st.Dropped != 0 {
			t.Fatalf("depth %d: accounting = %+v", depth, st)
		}
		p.DrainDigests(0)
	}
}

// TestLookupBatchWideKeySkipsCache programs keys wider than the flow
// cache can hold; agreement must still hold via the index path. The
// 80-byte ternary key is also wider than any fixed scratch the burst path
// could carry for the store's lane masking: it must be sized by the key.
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
			var ws BatchWorkspace
			active := allIdx(len(pkts))
			tab.LookupBatch(pkts, active, &ws, 0)
			if !ws.matched[0] || ws.matched[1] {
				t.Fatalf("batch matched (%v,%v), want the row's own key to hit and the zero key to miss", ws.matched[0], ws.matched[1])
			}
			for i, pkt := range pkts {
				wantAct, wantMatched := tab.Lookup(pkt.Bytes)
				if ws.acts[i] != wantAct || ws.matched[i] != wantMatched {
					t.Fatalf("pkt %d: batch (%+v,%v) != lookup (%+v,%v)", i, ws.acts[i], ws.matched[i], wantAct, wantMatched)
				}
			}
			// Sized once, the scratch is kept: a second burst allocates nothing.
			if n := testing.AllocsPerRun(5, func() { tab.LookupBatch(pkts, active, &ws, 0) }); n != 0 {
				t.Fatalf("steady-state wide-key burst allocates %.0f times", n)
			}
		})
	}
}
