package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestQuantileEstimators(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11} // 1..11 shuffled
	for _, c := range []struct {
		q, want float64
	}{{0, 1}, {0.5, 6}, {1, 11}, {0.9, 10}, {0.1, 2}, {0.25, 3.5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..11, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if fastRate(xs) != 9 || fastTime(xs) != 3 {
		t.Errorf("fast tail of 1..11 = %v and %v, want the third from each end", fastRate(xs), fastTime(xs))
	}
	few := xs[:9]
	if fastRate(few) != 9 || fastTime(few) != 1 {
		t.Errorf("with fewer than ten samples the extremes are used: got %v and %v", fastRate(few), fastTime(few))
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(fastTime(nil)) || !math.IsNaN(fastRate(nil)) {
		t.Error("an estimate of nothing must be NaN so a missing sample set cannot pass for a number")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
}

// digestOf hashes the inputs that do not need a trained model.
func digestOf(t *testing.T, p Params, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := genFwd(rng, p)
	if err != nil {
		t.Fatal(err)
	}
	rows := genRows(rng, p.FleetRows)
	d := newInputsDigest()
	d.rows(fwdKeyOffsets, in.rows)
	d.frames(in.flows)
	d.frames(in.seq[:min(len(in.seq), 4096)])
	d.rows(fwdKeyOffsets, rows)
	d.rows(fwdKeyOffsets, churnRows(rng, rows, p.ChurnRows))
	d.floats(dephasePauses(rng.Float64(), 512))
	return d.sum()
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	for _, p := range Workloads {
		p := smallParams(p)
		a, b, c := digestOf(t, p, 7), digestOf(t, p, 7), digestOf(t, p, 8)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", p.Name)
		}
		if a == c {
			t.Errorf("%s: different seeds generated the same inputs", p.Name)
		}
	}
}

func TestForwardingInputsHaveTheDeclaredShape(t *testing.T) {
	for _, p := range Workloads {
		in, err := genFwd(rand.New(rand.NewSource(3)), p)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		misses := 0
		for _, f := range in.flows {
			k := extractKey(f, fwdKeyOffsets)
			keys[string(k)] = true
			if !in.rowSet.matches(k) {
				misses++
			}
		}
		if len(keys) != p.Flows {
			t.Errorf("%s: %d distinct keys, want %d", p.Name, len(keys), p.Flows)
		}
		if want := int(math.Round(p.MissShare * float64(p.Flows))); misses != want || in.misses != want {
			t.Errorf("%s: %d flows miss (inputs say %d), want %d", p.Name, misses, in.misses, want)
		}
		if len(in.seq) != p.roundPackets || len(in.rows) != p.TableRows {
			t.Errorf("%s: round of %d packets over %d rows, want %d over %d", p.Name, len(in.seq), len(in.rows), p.roundPackets, p.TableRows)
		}
	}
}

// ksUniform is the Kolmogorov–Smirnov distance between the empirical
// distribution of xs and the uniform distribution on [0, width).
func ksUniform(xs []float64, width float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	d := 0.0
	for i, x := range s {
		f := x / width
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// The react phase confirms a hit a fixed delay after a pump tick, so the
// next miss would always be injected at the same phase of the tick. On a
// fake clock, the pauses must make the injection phase uniform.
func TestDephasedScheduleIsUniformAgainstThePumpTick(t *testing.T) {
	const n, pipelineMs = 1500, 0.7
	phases := func(pauses []float64) []float64 {
		out := make([]float64, n)
		now := 3.1 // ms on the fake clock; ticks fire at multiples of pumpTickMs
		for i := range out {
			out[i] = math.Mod(now, pumpTickMs)
			hit := (math.Floor(now/pumpTickMs)+1)*pumpTickMs + pipelineMs
			now = hit + pauses[i]
		}
		return out
	}
	crit := 1.36 / math.Sqrt(n) // 5% critical value of the KS statistic
	for _, origin := range []float64{0, 0.25, 0.9} {
		if d := ksUniform(phases(dephasePauses(origin, n)), pumpTickMs); d > crit {
			t.Errorf("origin %v: KS distance %.4f from U(0, %v), critical value %.4f", origin, d, pumpTickMs, crit)
		}
	}
	if d := ksUniform(phases(make([]float64, n)), pumpTickMs); d < 0.5 {
		t.Errorf("without pauses the phase should be locked to the tick, KS distance only %.4f", d)
	}
}

// smallParams shrinks a workload so a whole run takes a fraction of a
// second; the shape (which phases run, which metrics come out) is kept.
func smallParams(p Params) Params {
	p.setupRepeats = 1
	p.TracePackets = 300
	p.Flows = min(p.Flows, 2048)
	p.TableRows = min(p.TableRows, 256)
	p.roundPackets = 2048
	p.FleetRows = min(p.FleetRows, 256)
	p.ChurnRows = min(p.ChurnRows, 3)
	p.attackKeys = 256
	p.StormMisses = 128
	p.ternaryRows = [2]int{100, 1000}
	return p
}

func TestSmokeEveryWorkloadReportsEveryDeclaredMetric(t *testing.T) {
	for _, p := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(smallParams(p), 5, 0.2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", p.Name, traced, err)
			}
			if err := res.Validate(); err != nil {
				t.Errorf("%s traced=%v: %v", p.Name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", p.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			var out bytes.Buffer
			if err := res.Print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, d := range res.decls {
				n := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times with unit %s", p.Name, traced, d.Name, n, d.Unit)
				}
			}
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]Metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if last.Correct == nil || last.Failed == nil || last.Attempted < 1 || len(last.Metrics) != len(res.decls) {
				t.Errorf("%s traced=%v: result line %s", p.Name, traced, lines[len(lines)-1])
			}
			if len(res.InputsSHA256) != 64 {
				t.Errorf("inputs_sha256 %q", res.InputsSHA256)
			}
		}
	}
}

func TestBenchmarkJSONDeclaresWhatTheHarnessPrints(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module: ", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []Decl `json:"end_to_end"`
		PerLayer  []Decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, w, Workloads[i].Name, Workloads[i].Why)
		}
	}
	same := func(kind string, got, want []Decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, harness has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
}
