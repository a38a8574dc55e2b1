package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterGaugeBasics: a counter is read from its owner's atomic at
// scrape time; a gauge is stored in the registry and reads back what was
// last set.
func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	var n atomic.Uint64
	reg.CounterFunc("test_total", "a counter", func() float64 { return float64(n.Load()) })
	n.Add(5)
	g := reg.Gauge("test_depth", "a gauge")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test_total 5\n", "test_depth 5\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1: {0.5, 1}; le=10: {2, 10}; le=100: {11}; +Inf: {1000}
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-1024.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1024.5", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 10 observations uniformly in (0,1]: the whole mass sits in bucket 0.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("q50 = %v, want within (0,1]", q)
	}
	// Add mass above: 10 more at 3 → median moves to the (2,4] bucket edge
	// region and p99 interpolates inside (2,4].
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	s = h.Snapshot()
	if q := s.Quantile(0.99); q <= 2 || q > 4 {
		t.Fatalf("q99 = %v, want within (2,4]", q)
	}
	// +Inf bucket clamps to the largest finite bound.
	h.Observe(100)
	if q := h.Snapshot().Quantile(1); q != 8 {
		t.Fatalf("q100 = %v, want clamp to 8", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

// TestHistogramConcurrentSnapshot hammers one histogram from writer
// goroutines while snapshotting concurrently: every snapshot must be
// monotonic (bucket sum >= count, since count is incremented last and
// read first), and the final state must balance exactly. Run with -race.
func TestHistogramConcurrentSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1e-6, 1e-3, 1})
	const writers, perWriter = 8, 5000
	stop := make(chan struct{})
	var snaps atomic.Int64
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var sum uint64
			for _, c := range s.Counts {
				sum += c
			}
			if sum < s.Count {
				t.Errorf("snapshot bucket sum %d < count %d", sum, s.Count)
				return
			}
			snaps.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%4) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	s := h.Snapshot()
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if s.Count != writers*perWriter || sum != s.Count {
		t.Fatalf("final count=%d bucketsum=%d, want %d", s.Count, sum, writers*perWriter)
	}
	if snaps.Load() == 0 {
		t.Fatal("snapshotter never ran")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("app_requests_total", "Total requests.", func() float64 { return 3 }, Label{"code", "200"})
	reg.CounterFunc("app_requests_total", "Total requests.", func() float64 { return 9 }, Label{"code", "500"})
	g := reg.Gauge("app_queue_depth", "Queue depth.")
	g.Set(4)
	h := reg.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.CollectFunc("app_entry_hits_total", "Per-entry hits.", "counter", func(emit func([]Label, float64)) {
		emit([]Label{{"entry", "1"}}, 11)
		emit([]Label{{"entry", `quo"te`}}, 2)
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_requests_total Total requests.\n# TYPE app_requests_total counter\n",
		`app_requests_total{code="200"} 3`,
		`app_requests_total{code="500"} 9`,
		"app_queue_depth 4",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
		`app_entry_hits_total{entry="1"} 11`,
		`app_entry_hits_total{entry="quo\"te"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with two instruments.
	if n := strings.Count(out, "# TYPE app_requests_total counter"); n != 1 {
		t.Fatalf("TYPE emitted %d times, want 1:\n%s", n, out)
	}
}

// TestFlightRecorderWraparound: a journal's memory tail (here a
// memory-only journal, NewFlightRecorder) keeps its last records, in
// sequence, and its /debug/vars dump says how many it dropped.
func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		if err := fr.Event("tick", map[string]any{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	recs := fr.Records()
	if len(recs) != 8 {
		t.Fatalf("retained %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if want := uint64(13 + i); r.Seq != want || r.Fields.(map[string]any)["i"] != int(want-1) {
			t.Fatalf("record %d = %+v, want seq %d", i, r, want)
		}
		if i > 0 && r.MonoNs < recs[i-1].MonoNs {
			t.Fatalf("non-monotonic timestamps: %d then %d", recs[i-1].MonoNs, r.MonoNs)
		}
	}

	var b strings.Builder
	if err := fr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		RunID    string          `json:"run_id"`
		Total    uint64          `json:"total"`
		Capacity int             `json:"capacity"`
		Dropped  uint64          `json:"dropped"`
		Records  []JournalRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(b.String()), &dump); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, b.String())
	}
	if dump.RunID != fr.RunID() || dump.Total != 20 || dump.Capacity != 8 || dump.Dropped != 12 || len(dump.Records) != 8 {
		t.Fatalf("dump = %+v", dump)
	}
}

// TestFlightRecorderConcurrent records into one journal's tail from many
// goroutines under -race: sequence numbers must come out unique and
// dense, and the tail must hold the newest of them in order.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(64)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = fr.Event("ev", nil)
			}
		}()
	}
	wg.Wait()
	for i, r := range fr.Records() {
		if want := uint64(writers*per - 64 + i + 1); r.Seq != want {
			t.Fatalf("tail record %d seq = %d, want %d", i, r.Seq, want)
		}
	}
}

// TestFlightRecorderFieldsDeepCopied is the regression test for event
// field aliasing: the tail keeps fields as values, so it must own them —
// mutating the caller's map afterwards must not rewrite recorded history.
func TestFlightRecorderFieldsDeepCopied(t *testing.T) {
	fr := NewFlightRecorder(8)
	nested := map[string]any{"inner": 1}
	list := []any{"a", "b"}
	raw := []byte{0xde, 0xad}
	fields := map[string]any{"n": nested, "l": list, "b": raw, "s": "keep"}
	_ = fr.Event("ev", fields)

	// Mutate everything the caller still holds.
	fields["s"] = "clobbered"
	fields["new"] = true
	nested["inner"] = 99
	list[0] = "z"
	raw[0] = 0x00

	got := fr.Records()[0].Fields.(map[string]any)
	if got["s"] != "keep" {
		t.Fatalf("top-level field aliased: %v", got["s"])
	}
	if _, ok := got["new"]; ok {
		t.Fatal("later insertion leaked into recorded event")
	}
	if v := got["n"].(map[string]any)["inner"]; v != 1 {
		t.Fatalf("nested map aliased: %v", v)
	}
	if v := got["l"].([]any)[0]; v != "a" {
		t.Fatalf("slice aliased: %v", v)
	}
	if v := got["b"].([]byte)[0]; v != 0xde {
		t.Fatalf("byte slice aliased: %#x", v)
	}

	// nil fields stay nil.
	_ = fr.Event("empty", nil)
	if fr.Records()[1].Fields != nil {
		t.Fatal("nil fields should stay nil")
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("srv_up_total", "Up.", func() float64 { return 1 })
	fr := NewFlightRecorder(16)
	_ = fr.Event("boot", map[string]any{"ok": true})
	srv, err := NewServer("127.0.0.1:0", reg, fr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	get := func(path string) (string, http.Header) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header
	}
	out, hdr := get("/metrics")
	if !strings.Contains(out, "srv_up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	// Prometheus exposition format version must be declared so scrapers
	// pick the text parser.
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	if out, _ := get("/debug/vars"); !strings.Contains(out, `"kind": "boot"`) {
		t.Fatalf("/debug/vars missing event:\n%s", out)
	}
	if out, _ := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
