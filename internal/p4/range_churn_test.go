package p4

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"p4guard/internal/match"
	"p4guard/internal/match/matchtest"
	"p4guard/internal/packet"
)

// TestRangePointChurnDifferential churns an 8k-row detector that is
// almost all point rows — programmed and reactive, with priority ties
// between points and ranges that only ord resolves — through Insert,
// Delete and Apply, while lock-free readers hammer both tables. After
// every mutation Lookup, ProcessBatch, the linear oracle and Explain must
// agree on every probe frame, and the per-packet and batched twins must
// end with identical counters. Run with -race this is the publication
// proof for the range generations derived in place.
func TestRangePointChurnDifferential(t *testing.T) {
	const width, nRows = 6, 8192
	key := []FieldSpec{{Name: "k", Offset: 0, Width: width}}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers) * 131))
			class := 0
			entryOf := func(row match.RangeRow) Entry {
				class++ // distinct match fields, so any edit is a computable delta
				for i := range row.Lo {
					if row.Lo[i] > row.Hi[i] { // tables refuse the generator's dead rows
						row.Lo[i], row.Hi[i] = row.Hi[i], row.Lo[i]
					}
				}
				return Entry{Priority: rng.Intn(4), Lo: row.Lo, Hi: row.Hi,
					Action: Action{Type: ActionDrop, Class: class}}
			}
			rows := matchtest.Rows(rng, width, nRows, 0.99)
			prog := make([]Entry, nRows)
			for i, row := range rows {
				prog[i] = entryOf(row)
			}
			perPkt := NewTable("per-packet", MatchRange, key, 0, Action{Type: ActionAllow, Class: 9})
			batched := NewTable("batched", MatchRange, key, 0, Action{Type: ActionAllow, Class: 9})
			twins := []*Table{perPkt, batched}
			for _, tbl := range twins {
				if err := tbl.Replace(prog); err != nil {
					t.Fatal(err)
				}
			}
			pkts := make([]*packet.Packet, 256)
			for i, k := range matchtest.Keys(rng, width, len(pkts), rows) {
				pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: append(k, byte(i))}
			}

			readerPkts := append([]*packet.Packet(nil), pkts...) // pkts gains probes below
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Explain walks the index exactly as Lookup does and
					// moves no counter the twins are compared on.
					for i := w; ; i++ {
						select {
						case <-stop:
							return
						default:
							twins[i%2].Explain(readerPkts[i%len(readerPkts)].Bytes)
						}
					}
				}(w)
			}
			defer func() { close(stop); wg.Wait() }()

			pipe := NewPipeline(batched, 0)
			var ws BatchWorkspace
			var reactive []uint64
			for round := 0; round < 30; round++ {
				switch op := rng.Intn(8); {
				case op < 5: // reactive install
					// Mostly a point row (it joins the index in place); sometimes
					// a range row (the index is compiled). The point ranks below
					// every range row (-1), among them (0–3, behind the programmed
					// rows of its priority) or above them all (4), and lies
					// inside a range row or on a key a point row already holds
					// (declined and compiled, whichever of the two outranks the
					// other) as often as somewhere fresh.
					e := entryOf(matchtest.Rows(rng, width, 1, 0)[0])
					if op < 4 {
						e = entryOf(matchtest.Rows(rng, width, 1, 1)[0])
						if at := prog[rng.Intn(len(prog))]; rng.Intn(2) == 0 {
							for i := range e.Lo { // a range row's corner, a point row's key
								e.Lo[i] = at.Lo[i]
								if rng.Intn(2) == 0 {
									e.Lo[i] = at.Hi[i]
								}
								e.Hi[i] = e.Lo[i]
							}
						}
						e.Priority = rng.Intn(6) - 1
						pkts[round] = &packet.Packet{Link: packet.LinkEthernet, Bytes: e.Lo} // probe the new row too
					}
					for _, tbl := range twins {
						id, err := tbl.Insert(e)
						if err != nil {
							t.Fatal(err)
						}
						if tbl == perPkt {
							reactive = append(reactive, id)
						}
					}
				case op == 5 && len(reactive) > 0:
					i := rng.Intn(len(reactive))
					for _, tbl := range twins {
						if err := tbl.Delete(reactive[i]); err != nil {
							t.Fatal(err)
						}
					}
					reactive = append(reactive[:i], reactive[i+1:]...)
				default: // delta: a few programmed rows replaced in place
					next := append([]Entry(nil), prog...)
					for _, row := range matchtest.Rows(rng, width, 1+rng.Intn(8), 0.7) {
						next[rng.Intn(len(next))] = entryOf(row)
					}
					d, ok := ComputeDelta(prog, next)
					if !ok {
						t.Fatalf("round %d: delta not computable", round)
					}
					for _, tbl := range twins {
						if err := tbl.Apply(d); err != nil {
							t.Fatalf("round %d: apply: %v", round, err)
						}
					}
					prog = next
				}

				got := burstOf(pipe, pkts, &ws)
				for i, pkt := range pkts {
					act, matched := perPkt.Lookup(pkt.Bytes)
					if want := verdictOf(act, matched); got[i] != want {
						t.Fatalf("round %d pkt %d: batch %+v != lookup %+v", round, i, got[i], want)
					}
					if oa, om := perPkt.LookupOracle(pkt.Bytes); oa != act || om != matched {
						t.Fatalf("round %d pkt %d: oracle (%+v,%v) != lookup (%+v,%v)", round, i, oa, om, act, matched)
					}
					if ex := batched.Explain(pkt.Bytes); ex.Action != act || ex.Matched != matched {
						t.Fatalf("round %d pkt %d: explain (%+v,%v) != lookup (%+v,%v)", round, i, ex.Action, ex.Matched, act, matched)
					}
				}
			}

			ps, bs := perPkt.Stats(), batched.Stats()
			ps.Name, bs.Name = "", ""
			if ps != bs || ps.Hits == 0 || ps.Misses == 0 {
				t.Fatalf("table stats: per-packet %+v batched %+v", ps, bs)
			}
			pe, be := perPkt.EntrySnapshots(), batched.EntrySnapshots()
			for i := range pe {
				if pe[i] != be[i] {
					t.Fatalf("entry %d counters: per-packet %+v batched %+v", i, pe[i], be[i])
				}
			}
		})
	}
}
