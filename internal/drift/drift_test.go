package drift

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// feedSeeded folds n seeded observations into b. shift is added to every
// byte to emulate a distribution shift. Residuals are dyadic fractions
// so moment sums stay exact (addition order independent) for the
// merge-equals-combined-stream test.
func feedSeeded(b *Builder, seed int64, n int, shift byte) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v0 := byte(rng.Intn(64)) + shift
		v1 := byte(rng.Intn(16)) + shift
		b.Observe([]byte{v0, v1}, rng.Intn(3), float64(rng.Intn(100))/1024)
	}
}

func TestBuilderDeterministic(t *testing.T) {
	mk := func() *Profile {
		b := NewBuilder([]int{0, 1}, 0)
		feedSeeded(b, 7, 500, 0)
		return b.Profile()
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteProfile(&buf1, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfile(&buf2, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("same observation sequence produced different profile bytes")
	}
}

func TestFeatureSketchMomentsAndQuantiles(t *testing.T) {
	b := NewBuilder([]int{0}, 0)
	for v := 0; v < 100; v++ {
		b.Observe([]byte{byte(v)}, NoClass, NoResidual)
	}
	p := b.Profile()
	f := &p.Features[0]
	if f.Count != 100 {
		t.Fatalf("count = %d, want 100", f.Count)
	}
	if got := f.Mean(); math.Abs(got-49.5) > 1e-9 {
		t.Fatalf("mean = %v, want 49.5", got)
	}
}

func TestProfileMergeEqualsCombinedStream(t *testing.T) {
	// Sketches are exact: shard profiles merged must equal the profile of
	// the concatenated stream.
	one := NewBuilder([]int{0, 1}, 0)
	feedSeeded(one, 1, 300, 0)
	feedSeeded(one, 2, 200, 5)

	a := NewBuilder([]int{0, 1}, 0)
	feedSeeded(a, 1, 300, 0)
	bb := NewBuilder([]int{0, 1}, 0)
	feedSeeded(bb, 2, 200, 5)
	merged := a.Profile()
	if err := merged.Merge(bb.Profile()); err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if err := WriteProfile(&want, one.Profile()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfile(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("merged shard profiles differ from single-stream profile")
	}
}

func TestProfileMergeOffsetMismatch(t *testing.T) {
	a := NewBuilder([]int{0, 1}, 0).Profile()
	b := NewBuilder([]int{0, 2}, 0).Profile()
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with mismatched offsets succeeded")
	}
}

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	b := NewBuilder([]int{3, 9}, 0)
	feedSeeded(b, 11, 400, 0)
	p := b.Profile()
	p.Source = "unit"
	p.Fingerprint = "abc123"
	p.ClassNames = []string{"benign", "flood"}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, bb bytes.Buffer
	if err := WriteProfile(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfile(&bb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), bb.Bytes()) {
		t.Fatal("profile changed across save/load")
	}
}

func TestReadProfileRejectsBadShapes(t *testing.T) {
	cases := map[string]string{
		"bad schema":    `{"schema":99,"offsets":[],"features":[],"residual":{"bins":[]}}`,
		"feature count": `{"schema":1,"offsets":[0],"features":[],"residual":{"bins":[]}}`,
		"not json":      `nope`,
	}
	for name, raw := range cases {
		if _, err := ReadProfile(bytes.NewReader([]byte(raw))); err == nil {
			t.Errorf("%s: ReadProfile accepted %q", name, raw)
		}
	}
}

func TestComputeIdenticalStreamsScoreLow(t *testing.T) {
	base := NewBuilder([]int{0, 1}, 0)
	feedSeeded(base, 3, 2000, 0)
	live := NewBuilder([]int{0, 1}, 0)
	feedSeeded(live, 4, 2000, 0) // different seed, same distribution
	sc, err := Compute(base.Profile(), live.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Total >= 0.1 {
		t.Fatalf("same-distribution score = %v, want < 0.1", sc.Total)
	}
	if sc.ClassPSI < 0 || sc.ResidualPSI < 0 {
		t.Fatalf("class/residual terms skipped: %+v", sc)
	}
}

func TestComputeShiftedStreamScoresHigh(t *testing.T) {
	base := NewBuilder([]int{0, 1}, 0)
	feedSeeded(base, 3, 2000, 0)
	live := NewBuilder([]int{0, 1}, 0)
	feedSeeded(live, 4, 2000, 100) // shift every byte by 100
	sc, err := Compute(base.Profile(), live.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Total <= DefaultThreshold {
		t.Fatalf("shifted-distribution score = %v, want > %v", sc.Total, DefaultThreshold)
	}
	if sc.FeatureMaxPSI <= DefaultThreshold {
		t.Fatalf("feature max PSI = %v, want > %v", sc.FeatureMaxPSI, DefaultThreshold)
	}
}

func TestComputeSkipsAbsentTerms(t *testing.T) {
	base := NewBuilder([]int{0}, 0)
	feedSeeded(base, 3, 500, 0)
	// Switch-side observer: no verdicts, no residuals.
	live := NewBuilder([]int{0}, 0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		live.Observe([]byte{byte(rng.Intn(64))}, NoClass, NoResidual)
	}
	sc, err := Compute(base.Profile(), live.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if sc.ClassPSI != -1 || sc.ResidualPSI != -1 {
		t.Fatalf("absent terms not skipped: %+v", sc)
	}
	if sc.Total >= 0.1 {
		t.Fatalf("feature-only same-distribution score = %v, want < 0.1", sc.Total)
	}
}

func TestComputeEmptyLiveScoresZero(t *testing.T) {
	base := NewBuilder([]int{0}, 0)
	feedSeeded(base, 3, 100, 0)
	live := NewBuilder([]int{0}, 0)
	sc, err := Compute(base.Profile(), live.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Total != 0 {
		t.Fatalf("empty live profile scored %v, want 0", sc.Total)
	}
}

func TestComputeErrors(t *testing.T) {
	p := NewBuilder([]int{0}, 0).Profile()
	q := NewBuilder([]int{1}, 0).Profile()
	if _, err := Compute(nil, p); err == nil {
		t.Fatal("nil baseline accepted")
	}
	if _, err := Compute(p, q); err == nil {
		t.Fatal("offset mismatch accepted")
	}
}

func TestClassWindowSlides(t *testing.T) {
	b := NewBuilder([]int{0}, 4)
	for i := 0; i < 10; i++ {
		b.Observe([]byte{0}, 0, NoResidual)
	}
	for i := 0; i < 4; i++ {
		b.Observe([]byte{0}, 1, NoResidual)
	}
	p := b.Profile()
	// Window of 4: the last 4 verdicts are all class 1.
	if p.Classes[0] != 0 || p.Classes[1] != 4 {
		t.Fatalf("windowed classes = %v, want [0 4]", p.Classes)
	}
}

func TestMonitorDisarmContract(t *testing.T) {
	var nilMon *Monitor
	if nilMon.Armed() != nil {
		t.Fatal("nil monitor reported armed")
	}
	if nilMon.Crossings() != 0 {
		t.Fatal("nil monitor reported crossings")
	}
	m := NewMonitor()
	if m.Armed() != nil {
		t.Fatal("fresh monitor reported armed")
	}
	if err := m.Arm(MonitorConfig{}); err == nil {
		t.Fatal("armed without a baseline")
	}
}

func TestMonitorCrossingBothDirections(t *testing.T) {
	base := NewBuilder([]int{0, 1}, 0)
	feedSeeded(base, 3, 2000, 0)

	m := NewMonitor()
	var events []CrossEvent
	m.OnCross(func(ev CrossEvent) { events = append(events, ev) })
	if err := m.Arm(MonitorConfig{Baseline: base.Profile(), ScoreEvery: 64, Window: 256}); err != nil {
		t.Fatal(err)
	}
	da := m.Armed()
	if da == nil {
		t.Fatal("monitor not armed")
	}

	rng := rand.New(rand.NewSource(9))
	// Shifted stream: must cross upward on both the shard and the fleet.
	for i := 0; i < 512; i++ {
		da.Observe(0, []byte{byte(rng.Intn(64)) + 100, byte(rng.Intn(16)) + 100}, rng.Intn(3), float64(rng.Intn(100))/1000)
	}
	if m.Crossings() == 0 {
		t.Fatalf("no upward crossing after shifted stream (score %v)", da.ShardScore(0))
	}
	// Drown the window in baseline-shaped traffic until the score decays
	// back under the threshold; the feature sketches are cumulative, but
	// a long matching tail shrinks PSI toward the mixture's.
	for i := 0; i < 20000 && da.ShardScore(0) > da.Threshold(); i++ {
		da.Observe(0, []byte{byte(rng.Intn(64)), byte(rng.Intn(16))}, rng.Intn(3), float64(rng.Intn(100))/1000)
	}
	var up, down int
	for _, ev := range events {
		if ev.Up {
			up++
		} else {
			down++
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("crossings up=%d down=%d, want both directions (events %+v)", up, down, events)
	}
	// Fleet-level crossing must fire too (FleetShard entries).
	var fleet int
	for _, ev := range events {
		if ev.Shard == FleetShard {
			fleet++
		}
	}
	if fleet == 0 {
		t.Fatal("no fleet-level crossing events")
	}
}

func TestMonitorShardingAndFleetMerge(t *testing.T) {
	base := NewBuilder([]int{0}, 0)
	feedSeeded(base, 3, 1000, 0)
	m := NewMonitor()
	if err := m.Arm(MonitorConfig{Baseline: base.Profile(), Shards: 2, ScoreEvery: 8}); err != nil {
		t.Fatal(err)
	}
	da := m.Armed()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		da.Observe(i%2, []byte{byte(rng.Intn(64))}, NoClass, NoResidual)
	}
	if got := da.ShardObservations(0) + da.ShardObservations(1); got != 100 {
		t.Fatalf("shard observations sum = %d, want 100", got)
	}
	fp := da.FleetProfile()
	if fp.Count != 100 {
		t.Fatalf("fleet profile count = %d, want 100", fp.Count)
	}
}
