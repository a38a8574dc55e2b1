package switchsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4guard/internal/match"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/telemetry"
)

func mkSwitch(t *testing.T) *Switch {
	t.Helper()
	sw, err := New("gw0", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// dropHighByte0 builds a rule set that drops packets whose byte 0 > 100.
func dropHighByte0() *rules.RuleSet {
	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{
		{Offset: 0, Lo: 101, Hi: 255},
	}})
	return rs
}

func TestNewUnknownLink(t *testing.T) {
	if _, err := New("x", packet.LinkType(99)); err == nil {
		t.Fatal("accepted unknown link")
	}
}

func TestInstallAndProcess(t *testing.T) {
	sw := mkSwitch(t)
	n, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no entries installed")
	}
	v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 0, 0}})
	if v.Allowed {
		t.Fatal("attack packet allowed")
	}
	v = sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{50, 0, 0}})
	if !v.Allowed {
		t.Fatal("benign packet dropped")
	}
	st := sw.Stats()
	if st.Packets != 2 || st.Dropped != 1 || st.Allowed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both tiny frames fail the Ethernet parser.
	if st.ParseFailed != 2 {
		t.Fatalf("parse failed = %d, want 2", st.ParseFailed)
	}
}

func TestMissDigests(t *testing.T) {
	sw := mkSwitch(t)
	// Detector with digest-on-miss and no entries: everything digested.
	rs := rules.NewRuleSet([]int{0}, 0)
	if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(i)}})
		if !v.Digested {
			t.Fatal("miss did not digest")
		}
	}
	ds := sw.DrainDigests(0)
	if len(ds) != 5 {
		t.Fatalf("%d digests", len(ds))
	}
	if sw.Stats().Digested != 5 {
		t.Fatalf("digest stat = %d", sw.Stats().Digested)
	}
}

func TestReinstallReplacesRules(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	// New rule set: drop byte0 < 10 instead.
	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 0, Hi: 9}}})
	if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200}}); !v.Allowed {
		t.Fatal("old rule still active after reinstall")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{5}}); v.Allowed {
		t.Fatal("new rule not active")
	}
}

// TestSwitchMatchesRuleSetSemantics: the deployed data plane must agree
// with direct rule-set classification on random packets.
func TestSwitchMatchesRuleSetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := rules.NewRuleSet([]int{0, 3, 7}, 0)
	for i := 0; i < 5; i++ {
		var preds []rules.BytePredicate
		for _, off := range []int{0, 3, 7} {
			if rng.Float64() < 0.7 {
				a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
				if a > b {
					a, b = b, a
				}
				preds = append(preds, rules.BytePredicate{Offset: off, Lo: a, Hi: b})
			}
		}
		rs.Add(rules.Rule{Priority: i + 1, Class: 1 + rng.Intn(2), Preds: preds})
	}
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		body := make([]byte, 12)
		rng.Read(body)
		pkt := &packet.Packet{Link: packet.LinkEthernet, Bytes: body}
		want := rules.ActionForClass(rs.Classify(pkt)) == rules.ActionAllow
		if got := sw.Process(pkt); got.Allowed != want {
			t.Fatalf("packet %d: switch allowed=%v, rules say %v", i, got.Allowed, want)
		}
	}
}

func TestRunStatsDelta(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	pkts := []*packet.Packet{
		{Link: packet.LinkEthernet, Bytes: []byte{200}},
		{Link: packet.LinkEthernet, Bytes: []byte{10}},
		{Link: packet.LinkEthernet, Bytes: []byte{150}},
	}
	st := sw.Run(pkts)
	if st.Packets != 3 || st.Dropped != 2 || st.Allowed != 1 {
		t.Fatalf("run stats = %+v", st)
	}
	if st.PPS() <= 0 || st.PerPacket() <= 0 {
		t.Fatalf("rates: pps=%v perpkt=%v", st.PPS(), st.PerPacket())
	}
	// Second run must not double-count the first.
	st2 := sw.Run(pkts[:1])
	if st2.Packets != 1 {
		t.Fatalf("second run stats = %+v", st2)
	}
}

func TestDetectorStats(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{250}})
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{1}})
	st, err := sw.DetectorStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("detector stats = %+v", st)
	}
}

func TestRateGuardDropsFloodsKeepsBenign(t *testing.T) {
	sw := mkSwitch(t)
	// Rules allow everything; the guard alone must act.
	if _, err := sw.InstallRuleSet(rules.NewRuleSet([]int{0}, 0), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	// Key on byte 0 so the test controls identity directly.
	key := []p4.FieldSpec{{Name: "b0", Offset: 0, Width: 1}}
	if err := sw.EnableRateGuard(key, 5, time.Second); err != nil {
		t.Fatal(err)
	}
	// Benign: 4 pkts per key per window.
	for i := 0; i < 4; i++ {
		v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{1}, Time: time.Duration(i) * time.Millisecond})
		if !v.Allowed {
			t.Fatal("benign-rate packet dropped")
		}
	}
	// Flood: 30 pkts, same key.
	dropped := 0
	for i := 0; i < 30; i++ {
		v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{2}, Time: time.Duration(i) * time.Millisecond})
		if !v.Allowed {
			dropped++
		}
	}
	if dropped != 25 {
		t.Fatalf("flood dropped %d of 30, want 25", dropped)
	}
	st := sw.Stats()
	if st.RateDropped != 25 {
		t.Fatalf("RateDropped = %d", st.RateDropped)
	}
}

func TestRateGuardDefaultKeys(t *testing.T) {
	for _, link := range []packet.LinkType{packet.LinkEthernet, packet.LinkIEEE802154, packet.LinkBLE} {
		sw, err := New("g", link)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.EnableRateGuard(nil, 100, time.Second); err != nil {
			t.Fatalf("%v: %v", link, err)
		}
	}
}

func TestEmptyRunStats(t *testing.T) {
	var st RunStats
	if st.PPS() != 0 || st.PerPacket() != 0 {
		t.Fatal("empty stats should be zero rates")
	}
}

// tracePackets builds a deterministic mixed trace for engine tests.
func tracePackets(n int, seed int64) []*packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		body := make([]byte, 16)
		rng.Read(body)
		pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: body, Time: time.Duration(i) * time.Microsecond}
	}
	return pkts
}

// TestProcessBatchMatchesProcess: the batched path must produce the same
// verdicts and stats deltas as per-packet Process.
func TestProcessBatchMatchesProcess(t *testing.T) {
	pkts := tracePackets(300, 21)

	seq := mkSwitch(t)
	if _, err := seq.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	want := processEach(seq, pkts)

	bat := mkSwitch(t)
	if _, err := bat.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	got := bat.ProcessBatch(pkts)
	if len(got) != len(want) {
		t.Fatalf("verdict count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packet %d: batch %+v != sequential %+v", i, got[i], want[i])
		}
	}
	ss, bs := seq.Stats(), bat.Stats()
	ss.Elapsed, bs.Elapsed = 0, 0
	if ss != bs {
		t.Fatalf("stats diverge: sequential %+v, batch %+v", ss, bs)
	}
}

// TestRunParallelMatchesSequential: sharded parallel processing must
// agree with the sequential run on every counter.
func TestRunParallelMatchesSequential(t *testing.T) {
	pkts := tracePackets(1000, 22)
	seq := mkSwitch(t)
	if _, err := seq.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	want := seq.Run(pkts)
	for _, workers := range []int{2, 3, 8, 0} {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		got := sw.RunParallel(pkts, workers)
		got.Elapsed, want.Elapsed = 0, 0
		if got != want {
			t.Fatalf("workers=%d: parallel %+v != sequential %+v", workers, got, want)
		}
		if ds := sw.DrainDigests(0); len(ds) != got.Digested {
			t.Fatalf("workers=%d: %d digests queued, stats say %d", workers, len(ds), got.Digested)
		}
	}
}

// TestRunParallelFewPacketsAndEmpty: degenerate inputs must not panic or
// deadlock.
func TestRunParallelDegenerate(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	if st := sw.RunParallel(nil, 8); st.Packets != 0 {
		t.Fatalf("empty run stats = %+v", st)
	}
	if st := sw.RunParallel(tracePackets(3, 1), 8); st.Packets != 3 {
		t.Fatalf("3-packet run stats = %+v", st)
	}
}

// TestParallelRunWithConcurrentReprogram: forwarding workers racing a
// table reprogram and reactive inserts must stay memory-safe (run under
// -race) and account every packet exactly once.
func TestParallelRunWithConcurrentReprogram(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	pkts := tracePackets(2000, 23)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Error(err)
				return
			}
			if _, err := sw.InsertDetectorEntry(p4.Entry{
				Priority: 1000 + i, Lo: []byte{7}, Hi: []byte{7},
				Action: p4.Action{Type: p4.ActionDrop, Class: 1},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	st := sw.RunParallel(pkts, 4)
	<-done
	if st.Packets != len(pkts) || st.Allowed+st.Dropped != len(pkts) {
		t.Fatalf("lost packets under churn: %+v", st)
	}
}

// TestRateGuardUnderParallelRun: the shared guard must keep counting
// correctly when observed from many workers.
func TestRateGuardUnderParallelRun(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(rules.NewRuleSet([]int{0}, 0), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	key := []p4.FieldSpec{{Name: "b0", Offset: 0, Width: 1}}
	if err := sw.EnableRateGuard(key, 5, time.Hour); err != nil {
		t.Fatal(err)
	}
	pkts := make([]*packet.Packet, 100)
	for i := range pkts {
		pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{9}, Time: time.Duration(i)}
	}
	st := sw.RunParallel(pkts, 4)
	if st.RateDropped != 95 {
		t.Fatalf("RateDropped = %d, want 95", st.RateDropped)
	}
}

// TestRegisterTelemetryExportsCounters: registered metrics must reflect
// the switch's verdict, parse, table, and digest-queue accounting, and
// the exposition must balance against Stats().
func TestRegisterTelemetryExportsCounters(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.RegisterTelemetry(reg)

	sw.Run(tracePackets(500, 3))
	st := sw.Stats()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf(`p4guard_switch_packets_total{switch="gw0"} %d`, st.Packets),
		fmt.Sprintf(`p4guard_switch_verdicts_total{switch="gw0",verdict="allowed"} %d`, st.Allowed),
		fmt.Sprintf(`p4guard_switch_verdicts_total{switch="gw0",verdict="dropped"} %d`, st.Dropped),
		`p4guard_switch_forward_latency_seconds_count`,
		`p4guard_switch_digest_queue_depth{switch="gw0"} 0`,
		`p4guard_table_entry_hits_total{switch="gw0",table="iot_detector"`,
		`p4guard_table_lookups_total{switch="gw0",table="iot_detector",result="hit"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The batch merge always observes the latency histogram.
	if hs := sw.latencyHist.Load().Snapshot(); hs.Count == 0 {
		t.Fatal("latency histogram never observed")
	}
	// Per-entry hits must sum to the table's hit counter.
	det, err := sw.DetectorStats()
	if err != nil {
		t.Fatal(err)
	}
	var entryHits uint64
	for _, e := range sw.DetectorEntrySnapshots() {
		entryHits += e.Hits
	}
	if entryHits != det.Hits {
		t.Fatalf("per-entry hits %d != table hits %d", entryHits, det.Hits)
	}
}

// TestTelemetryUnderParallelRunWithReprogram: histogram observation and
// metric scrapes racing RunParallel workers and Program reprogramming
// must stay memory-safe (-race) and keep snapshots monotonic.
func TestTelemetryUnderParallelRunWithReprogram(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.RegisterTelemetry(reg)
	pkts := tracePackets(2000, 29)

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(2)
	go func() { // reprogramming churn
		defer scrapeWG.Done()
		for i := 0; i < 20; i++ {
			if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // concurrent scraper
		defer scrapeWG.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			hs := sw.latencyHist.Load().Snapshot()
			var sum uint64
			for _, c := range hs.Counts {
				sum += c
			}
			if sum < hs.Count || hs.Count < last {
				t.Errorf("snapshot not monotonic: count=%d bucketsum=%d last=%d", hs.Count, sum, last)
				return
			}
			last = hs.Count
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var runWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		runWG.Add(1)
		go func() {
			defer runWG.Done()
			sw.RunParallel(pkts, 4)
		}()
	}
	runWG.Wait()
	close(stop)
	scrapeWG.Wait()

	st := sw.Stats()
	if st.Packets != 4*len(pkts) || st.Allowed+st.Dropped != st.Packets {
		t.Fatalf("stats lost packets under churn: %+v", st)
	}
	if sw.latencyHist.Load().Snapshot().Count == 0 {
		t.Fatal("no latency observations recorded")
	}
}

// TestProcessLatencySampling: single-packet merges observe 1 in 64; after
// many Process calls the histogram must have roughly packets/64 samples.
func TestProcessLatencySampling(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.RegisterTelemetry(reg)
	const n = 640
	for _, p := range tracePackets(n, 31) {
		sw.Process(p)
	}
	if got := sw.latencyHist.Load().Snapshot().Count; got != n/latencySampleEvery {
		t.Fatalf("sampled %d observations from %d packets, want %d", got, n, n/latencySampleEvery)
	}
}

// TestRunStatsString: the one shared formatting of a stats line.
func TestRunStatsString(t *testing.T) {
	st := RunStats{Packets: 5, Allowed: 3, Dropped: 2, RateDropped: 1, Digested: 4, ParseFailed: 0,
		Elapsed: 5 * time.Microsecond}
	want := "processed=5 allowed=3 dropped=2 rate_dropped=1 digested=4 parse_failed=0"
	if st.String() != want {
		t.Fatalf("String() = %q, want %q", st.String(), want)
	}
	if st.FormatPPS() != "1000000" {
		t.Fatalf("FormatPPS() = %q", st.FormatPPS())
	}
	if st.FormatPerPacket() != "1µs" {
		t.Fatalf("FormatPerPacket() = %q", st.FormatPerPacket())
	}
}

// detectorState is everything a refused reprogram must leave alone.
type detectorState struct {
	entries   int
	progCount int
	progHash  uint64
	def       p4.Action
	key       string
}

// rangeRows builds range entries into the program ProgramDetector adopts.
func rangeRows(entries []p4.Entry) *p4.Rows {
	r, keyBytes := &p4.Rows{}, 0
	for _, e := range entries {
		keyBytes += len(e.Lo) + len(e.Hi)
	}
	r.Grow(len(entries), keyBytes)
	for _, e := range entries {
		r.Add(e.Priority, e.PrefixLen, e.Lo, e.Hi, e.Action)
	}
	return r
}

func detectorStateOf(t *testing.T, sw *Switch) detectorState {
	t.Helper()
	det, err := sw.Pipeline().Table(DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	st := detectorState{entries: det.Len(), def: det.DefaultAction, key: fmt.Sprint(det.KeySpecs())}
	st.progCount, st.progHash = det.ProgramSignature()
	return st
}

// TestRefusedProgramLeavesDetectorUntouched: a full swap the table
// refuses — entry widths disagree with the new key layout, a bound is
// inverted, row 2 of four is of the wrong width, the table has room for
// fewer — must leave layout, default action, entries and program signature
// as they were, and the attack frame the installed rule drops stays
// dropped. The table would have adopted the builder it was handed, so that
// too must come back as it went in — every row is validated before any is
// numbered: where the rows are good under some layout, the refused builder
// then programs a second switch to exactly them.
func TestRefusedProgramLeavesDetectorUntouched(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	det, err := sw.Pipeline().Table(DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	before, entriesBefore := detectorStateOf(t, sw), det.Entries()
	drop := p4.Action{Type: p4.ActionDrop, Class: 1}
	ok := func(v byte) p4.Entry { return p4.Entry{Lo: []byte{v}, Hi: []byte{v}, Action: drop} }
	for _, prog := range []struct {
		offsets []int
		rows    []p4.Entry
		max     int
		want    error
		good    bool // the rows are a program under the installed layout
	}{
		{[]int{1, 2}, []p4.Entry{{Lo: []byte{0}, Hi: []byte{9}, Action: drop}}, 0, p4.ErrBadEntry, true},            // new layout, rows of the old width
		{[]int{0}, []p4.Entry{{Lo: []byte{9}, Hi: []byte{0}, Action: drop}}, 0, p4.ErrBadEntry, false},              // installed layout, lo > hi
		{[]int{0}, []p4.Entry{ok(1), ok(2), {Lo: []byte{3, 3}, Hi: []byte{3, 3}}, ok(4)}, 0, p4.ErrBadEntry, false}, // valid rows ahead of a wide one
		{[]int{0}, []p4.Entry{ok(1), ok(2), ok(3), ok(4)}, 3, p4.ErrTableFull, true},                                // one row over the table's size
	} {
		det.MaxEntries = prog.max
		handed := rangeRows(prog.rows)
		err := sw.ProgramDetector(prog.offsets, p4.Action{Type: p4.ActionAllow}, handed)
		if !errors.Is(err, prog.want) {
			t.Fatalf("offsets %v: err = %v, want %v", prog.offsets, err, prog.want)
		}
		if prog.good {
			sw2, ref := mkSwitch(t), mkSwitch(t)
			if err := sw2.ProgramDetector([]int{0}, drop, handed); err != nil {
				t.Fatalf("offsets %v: the refused rows no longer program a table they fit: %v", prog.offsets, err)
			}
			if err := ref.ProgramDetector([]int{0}, drop, rangeRows(prog.rows)); err != nil {
				t.Fatal(err)
			}
			det2, _ := sw2.Pipeline().Table(DetectorTable)
			want, _ := ref.Pipeline().Table(DetectorTable)
			if !reflect.DeepEqual(det2.Entries(), want.Entries()) {
				t.Fatalf("offsets %v: the refused rows were written: %+v", prog.offsets, det2.Entries())
			}
		}
		if after := detectorStateOf(t, sw); after != before || !reflect.DeepEqual(det.Entries(), entriesBefore) {
			t.Fatalf("offsets %v: refused program changed the detector:\n before %+v\n after  %+v", prog.offsets, before, after)
		}
		attack := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 0, 0}}
		if v := sw.Process(attack); v.Allowed {
			t.Fatalf("offsets %v: attack frame forwarded after a refused program: %+v", prog.offsets, v)
		}
		if v := sw.ProcessBatch([]*packet.Packet{attack})[0]; v.Allowed {
			t.Fatalf("offsets %v: burst engine forwards the attack frame after a refused program: %+v", prog.offsets, v)
		}
	}
}

// TestRefusedDeltaLeavesDetectorUntouched: a delta aimed at the wrong
// base must not move the default action either; an accepted one moves it
// without touching the entries, and the flow cache notices.
func TestRefusedDeltaLeavesDetectorUntouched(t *testing.T) {
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(dropHighByte0(), p4.Action{Type: p4.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	miss := []*packet.Packet{{Link: packet.LinkEthernet, Bytes: []byte{50, 0, 0}}}
	if v := sw.ProcessBatch(miss)[0]; v.Allowed {
		t.Fatalf("miss under default drop: %+v", v)
	}
	before := detectorStateOf(t, sw)
	allow := p4.Action{Type: p4.ActionAllow}
	if err := sw.ApplyDetectorDelta([]int{0}, allow, p4.Delta{BaseCount: 99}); !errors.Is(err, p4.ErrDeltaBase) {
		t.Fatalf("err = %v, want ErrDeltaBase", err)
	}
	if after := detectorStateOf(t, sw); after != before {
		t.Fatalf("refused delta changed the detector:\n before %+v\n after  %+v", before, after)
	}
	if v := sw.ProcessBatch(miss)[0]; v.Allowed {
		t.Fatalf("refused delta flipped the default action: %+v", v)
	}

	if err := sw.ApplyDetectorDelta([]int{0}, allow, p4.Delta{BaseCount: before.progCount, BaseHash: before.progHash}); err != nil {
		t.Fatal(err)
	}
	want := before
	want.def = allow
	if after := detectorStateOf(t, sw); after != want {
		t.Fatalf("accepted delta:\n got  %+v\n want %+v", after, want)
	}
	if v := sw.ProcessBatch(miss)[0]; !v.Allowed {
		t.Fatalf("burst engine still serves the old default: %+v", v)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200}}); v.Allowed {
		t.Fatalf("default-action change lost the drop rule: %+v", v)
	}
}

// TestFullSwapNeverServesTornGeneration: full swaps between two programs
// with different key layouts, both dropping the same frame under a
// default of allow, race scalar and burst readers (run under -race). A
// reader that ever sees the frame allowed was served the new default
// without the new entries.
func TestFullSwapNeverServesTornGeneration(t *testing.T) {
	allow := p4.Action{Type: p4.ActionAllow}
	program := func(width int) []p4.Entry {
		rows := make([]p4.Entry, 0, 1025)
		lo, hi := make([]byte, width), make([]byte, width)
		lo[0] = 101
		for i := range hi {
			hi[i] = 255
		}
		rows = append(rows, p4.Entry{Priority: 9, Lo: lo, Hi: hi, Action: p4.Action{Type: p4.ActionDrop, Class: 1}})
		for i := 0; i < 1024; i++ { // bulk, so a rebuild takes long enough to be caught mid-way
			k := make([]byte, width)
			k[0], k[width-1] = byte(i%100), byte(i/100)
			rows = append(rows, p4.Entry{Priority: 1, Lo: k, Hi: k, Action: allow})
		}
		return rows
	}
	progs := []struct {
		offsets []int
		rows    []p4.Entry
	}{{[]int{0}, program(1)}, {[]int{0, 1}, program(2)}}

	sw := mkSwitch(t)
	if err := sw.ProgramDetector(progs[0].offsets, allow, rangeRows(progs[0].rows)); err != nil {
		t.Fatal(err)
	}
	neverAllowedWhile(t, sw, 300, func(i int) error {
		p := progs[i%2]
		return sw.ProgramDetector(p.offsets, allow, rangeRows(p.rows))
	})
}

// neverAllowedWhile reprograms the switch at least rounds times, and
// until both a scalar and a burst reader have forwarded the attack frame
// {200, 7, 0, 0} throughout: every program the caller alternates between
// drops it, so a reader that sees it allowed was served a torn
// generation.
func neverAllowedWhile(t *testing.T, sw *Switch, rounds int, reprogram func(i int) error) {
	t.Helper()
	frame := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 7, 0, 0}}
	var stop atomic.Bool
	var reads [2]atomic.Int64
	var wg sync.WaitGroup
	for r, forward := range []func() p4.Verdict{
		func() p4.Verdict { return sw.Process(frame) },
		func() p4.Verdict { return sw.ProcessBatch([]*packet.Packet{frame})[0] },
	} {
		wg.Add(1)
		go func(r int, forward func() p4.Verdict) {
			defer wg.Done()
			for !stop.Load() {
				if v := forward(); v.Allowed {
					t.Errorf("reader %d: attack frame allowed mid-swap: %+v", r, v)
					return
				}
				reads[r].Add(1)
			}
		}(r, forward)
	}
	for i := 1; i <= rounds || reads[0].Load() == 0 || reads[1].Load() == 0; i++ {
		if err := reprogram(i); err != nil {
			t.Error(err)
			break
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestDeltaNeverServesTornGeneration is TestFullSwapNeverServesTornGeneration
// for deltas: two programs over one key layout, one dropping the frame by
// a range row under a default of allow, the other by its default of drop
// with no such row, are alternated by delta under scalar and burst
// readers (run under -race). A reader that ever sees the frame allowed
// was served one program's entries under the other's default.
func TestDeltaNeverServesTornGeneration(t *testing.T) {
	allow, drop := p4.Action{Type: p4.ActionAllow}, p4.Action{Type: p4.ActionDrop, Class: 1}
	var bulk []p4.Entry // so an apply takes long enough to be caught mid-way
	for i := 0; i < 1024; i++ {
		k := []byte{byte(i % 100), byte(i / 100)}
		bulk = append(bulk, p4.Entry{Priority: 1, Lo: k, Hi: k, Action: allow})
	}
	progs := []struct {
		def  p4.Action
		rows []p4.Entry
	}{
		{drop, bulk},
		{allow, append([]p4.Entry{{Priority: 9, Lo: []byte{101, 0}, Hi: []byte{255, 255}, Action: drop}}, bulk...)},
	}
	var deltas [2]p4.Delta // deltas[i] leads to progs[i]
	for i := range deltas {
		d, ok := p4.ComputeDelta(progs[1-i].rows, progs[i].rows)
		if !ok {
			t.Fatal("no delta between the programs")
		}
		deltas[i] = d
	}

	sw := mkSwitch(t)
	offsets := []int{0, 1}
	if err := sw.ProgramDetector(offsets, progs[0].def, rangeRows(progs[0].rows)); err != nil {
		t.Fatal(err)
	}
	neverAllowedWhile(t, sw, 600, func(i int) error {
		return sw.ApplyDetectorDelta(offsets, progs[i%2].def, deltas[i%2])
	})
}

// TestInstallsNeverServeMixedGeneration: one writer installs 1 200 point
// rows — below every range row, between them and above them all, most
// inside a range row or two, across eight doublings of the index's hash —
// in place in what the readers are reading, while scalar and burst
// readers forward the frames about to gain a row (run under -race). Every row has its own class and none
// is removed, so a frame's verdict only ever moves up in match order:
// when the scan (LookupOracle) names the same row before and after a
// forward, every generation the forward can have loaded names it too, and
// the verdict must be that row's.
func TestInstallsNeverServeMixedGeneration(t *testing.T) {
	sw := mkSwitch(t)
	wild := func(pos int, hi byte) ([]byte, []byte) {
		lo, up := []byte{0, 0, 0}, []byte{255, 255, 255}
		up[pos] = hi
		return lo, up
	}
	var ranges []p4.Entry
	for i, pos := range []int{0, 1, 0} {
		lo, hi := wild(pos, byte(3-i))
		ranges = append(ranges, p4.Entry{Priority: 4 - 2*i, Lo: lo, Hi: hi, Action: p4.Action{Type: p4.ActionDrop, Class: i + 1}})
	}
	if err := sw.ProgramDetector([]int{0, 1, 2}, p4.Action{Type: p4.ActionAllow}, rangeRows(ranges)); err != nil {
		t.Fatal(err)
	}
	det, err := sw.Pipeline().Table(DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	const installs = 1200
	frames := make([]*packet.Packet, installs)
	for i := range frames {
		frames[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(i % 5), byte(i / 5 % 5), byte(i / 25), 0}}
	}

	verdictOf := func(act p4.Action, matched bool) p4.Verdict {
		return p4.Verdict{Allowed: act.Type != p4.ActionDrop, Class: act.Class, Matched: matched}
	}
	var stop atomic.Bool
	var reads [2]atomic.Int64
	var next atomic.Int64 // the install under way
	var wg sync.WaitGroup
	for r, burst := range []int{1, 8} {
		wg.Add(1)
		go func(r, burst int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			pkts := make([]*packet.Packet, burst)
			before := make([]p4.Verdict, burst)
			for !stop.Load() {
				for i := range pkts {
					pkts[i] = frames[(int(next.Load())+rng.Intn(4))%len(frames)]
					before[i] = verdictOf(det.LookupOracle(pkts[i].Bytes))
				}
				got := []p4.Verdict{{}}
				if burst == 1 {
					got[0] = sw.Process(pkts[0])
				} else {
					got = sw.ProcessBatch(pkts)
				}
				for i, pkt := range pkts {
					if after := verdictOf(det.LookupOracle(pkt.Bytes)); after == before[i] {
						reads[r].Add(1)
						if got[i] != after {
							t.Errorf("burst of %d, frame %x: forwarded %+v, every generation says %+v", burst, pkt.Bytes[:3], got[i], after)
							return
						}
					}
				}
			}
		}(r, burst)
	}
	for i, f := range frames {
		e := p4.Entry{Priority: 2*(i%4) - 1, Lo: f.Bytes[:3], Hi: f.Bytes[:3], Action: p4.Action{Type: p4.ActionDrop, Class: 100 + i}}
		next.Store(int64(i))
		if _, err := sw.InsertDetectorEntry(e); err != nil {
			t.Fatal(err)
		}
		for i == len(frames)-1 && (reads[0].Load() == 0 || reads[1].Load() == 0) && !t.Failed() {
			time.Sleep(time.Millisecond) // a slow start: let each reader check something
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := det.Len(); n != len(ranges)+installs {
		t.Fatalf("%d rows installed, want %d", n, len(ranges)+installs)
	}
}

// TestRepeatedPredicatesOneVerdict: predicates repeated on one offset
// are a conjunction, so the rule set, the compiled matcher (the
// controller's mirror) and a switch programmed from the rule set must
// give every value of the byte the same verdict, whether the repeats
// overlap, nest, contradict each other or are empty on their own. A
// rule that can match nothing occupies no row, and the rules around it
// still install.
func TestRepeatedPredicatesOneVerdict(t *testing.T) {
	on0 := func(bounds ...byte) []rules.BytePredicate {
		var ps []rules.BytePredicate
		for i := 0; i < len(bounds); i += 2 {
			ps = append(ps, rules.BytePredicate{Offset: 0, Lo: bounds[i], Hi: bounds[i+1]})
		}
		return ps
	}
	cases := []struct {
		name  string
		rules []rules.Rule
		rows  int
	}{
		{"overlapping", []rules.Rule{{Priority: 1, Class: 1, Preds: on0(10, 20, 15, 30)}}, 1},
		{"nested, widest last", []rules.Rule{{Priority: 1, Class: 1, Preds: on0(0, 200, 50, 60, 0, 255)}}, 1},
		{"contradictory", []rules.Rule{{Priority: 1, Class: 1, Preds: on0(10, 20, 30, 40)}}, 0},
		{"inverted on its own", []rules.Rule{{Priority: 1, Class: 1, Preds: on0(40, 30)}}, 0},
		{"empty rule above live ones", []rules.Rule{
			{Priority: 3, Class: 1, Preds: on0(0, 99, 100, 255)},
			{Priority: 2, Class: 2, Preds: append(on0(90, 110, 100, 120), rules.BytePredicate{Offset: 1, Lo: 7, Hi: 7})},
			{Priority: 1, Class: 0, Preds: on0(0, 255, 105, 200)},
		}, 2},
	}
	for _, tc := range cases {
		rs := rules.NewRuleSet([]int{0, 1}, 3)
		for _, r := range tc.rules {
			rs.Add(r)
		}
		m, err := match.Compile(rs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sw := mkSwitch(t)
		n, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDrop, Class: rs.DefaultClass})
		if err != nil {
			t.Fatalf("%s: install: %v", tc.name, err)
		}
		if n != tc.rows {
			t.Errorf("%s: %d rows installed, want %d", tc.name, n, tc.rows)
		}
		for v := 0; v < 256; v++ {
			for _, b1 := range []byte{7, 8} {
				pkt := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(v), b1}}
				class, matched := rs.ClassifyDetail(pkt)
				if c, ok := m.Classify(pkt); c != class || ok != matched {
					t.Fatalf("%s: bytes (%d,%d): compiled matcher (%d,%v), rule set (%d,%v)", tc.name, v, b1, c, ok, class, matched)
				}
				got := sw.Process(pkt)
				if got.Class != class || got.Matched != matched || got.Allowed != (class == 0) {
					t.Fatalf("%s: bytes (%d,%d): switch %+v, rule set (%d,%v)", tc.name, v, b1, got, class, matched)
				}
			}
		}
	}
}

// TestKeySpecsNames: ApplyDetectorDelta compares layouts spec for spec,
// names included, so the names are part of the contract; and every
// program and every delta builds a layout, so it must not cost an
// allocation per key byte.
func TestKeySpecsNames(t *testing.T) {
	offsets := []int{0, 7, 23, 255, 1500, -4}
	for i, spec := range keySpecs(offsets) {
		if want := (p4.FieldSpec{Name: fmt.Sprintf("hdr.b%d", offsets[i]), Offset: offsets[i], Width: 1}); spec != want {
			t.Errorf("spec %d = %+v, want %+v", i, spec, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { keySpecs(offsets) }); allocs > 3 {
		t.Errorf("a %d-byte layout costs %.0f allocations, want the specs, the names and their string", len(offsets), allocs)
	}
}
