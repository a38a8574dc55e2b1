package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// Decl declares one metric: BENCHMARK.json lists exactly these.
type Decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the gated metrics, printed by untraced runs. A bound is
// the share of the parent's median by which the metric may get worse.
// Metrics the host cannot move (counts, bytes, a timer wait) carry 2-10%;
// the four wall-clock metrics of CPU-bound work carry 25%, because that is
// how far this host's own speed moves between two sets of runs taken
// twenty minutes apart. README.md, "Calibration", has the runs.
var EndToEnd = []Decl{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"fwd_pps", "pkts/s", "higher", 0.25},
	{"miss_to_hit_ms_p50", "ms", "lower", 0.10},
	{"miss_to_hit_ms_p99", "ms", "lower", 0.10},
	{"deploy_ms", "ms", "lower", 0.25},
	{"delta_ms", "ms", "lower", 0.25},
	{"deploy_alloc_mb", "MB", "lower", 0.05},
	{"delta_alloc_mb", "MB", "lower", 0.05},
	{"react_alloc_kb", "KB", "lower", 0.05},
	{"detect_f1", "ratio", "higher", 0.02},
}

// PerLayer are the ungated single-layer metrics, printed by traced runs.
var PerLayer = []Decl{
	{Name: "packet.accept_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "packet.parse_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "match.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "match.classify_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "p4.lookup_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "p4.table_rows", Unit: "count", Better: "lower"},
	{Name: "p4.replace_ms", Unit: "ms", Better: "lower"},
	{Name: "p4.compute_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "p4.apply_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "p4.digest_offered", Unit: "count", Better: "lower"},
	{Name: "p4.digest_dropped", Unit: "count", Better: "lower"},
	{Name: "p4.digest_depth_max", Unit: "count", Better: "lower"},
	{Name: "p4.ternary_lookup_ns_per_pkt_1k", Unit: "ns", Better: "lower"},
	{Name: "p4.ternary_lookup_ns_per_pkt_100k", Unit: "ns", Better: "lower"},
	{Name: "switchsim.burst_us_p50", Unit: "us", Better: "lower"},
	{Name: "switchsim.burst_us_p99", Unit: "us", Better: "lower"},
	{Name: "switchsim.burst_us_max", Unit: "us", Better: "lower"},
	{Name: "switchsim.processbatch_pps", Unit: "pkts/s", Better: "higher"},
	{Name: "switchsim.perpacket_pps", Unit: "pkts/s", Better: "higher"},
	{Name: "switchsim.allocs_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "switchsim.miss_share", Unit: "ratio", Better: "lower"},
	{Name: "switchsim.distinct_keys", Unit: "count", Better: "lower"},
	{Name: "switchsim.pps_during_deploy", Unit: "pkts/s", Better: "higher"},
	{Name: "switchsim.burst_us_p99_during_deploy", Unit: "us", Better: "lower"},
	{Name: "switchsim.burst_us_max_during_deploy", Unit: "us", Better: "lower"},
	{Name: "p4rt.write_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "p4rt.program_ms", Unit: "ms", Better: "lower"},
	{Name: "p4rt.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "p4rt.program_frame_bytes", Unit: "count", Better: "lower"},
	{Name: "p4rt.delta_frame_bytes", Unit: "count", Better: "lower"},
	{Name: "p4rt.digest_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "controller.fanin_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "controller.classify_us_p50", Unit: "us", Better: "lower"},
	{Name: "controller.plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "controller.install_us_p50", Unit: "us", Better: "lower"},
	{Name: "controller.miss_to_hit_unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "controller.plan_shards_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.storm_installs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "controller.storm_dropped_batches", Unit: "count", Better: "lower"},
	{Name: "controller.mirror_suppressed", Unit: "count", Better: "lower"},
	{Name: "controller.delta_applies", Unit: "count", Better: "higher"},
	{Name: "controller.delta_fallbacks", Unit: "count", Better: "lower"},
	{Name: "iotgen.generate_s", Unit: "s", Better: "lower"},
	{Name: "p4guard.train_s", Unit: "s", Better: "lower"},
	{Name: "fieldsel.select_s", Unit: "s", Better: "lower"},
	{Name: "nn.classifier_s", Unit: "s", Better: "lower"},
	{Name: "dtree.distill_s", Unit: "s", Better: "lower"},
	{Name: "rules.compile_s", Unit: "s", Better: "lower"},
	{Name: "autoenc.drift_model_s", Unit: "s", Better: "lower"},
	{Name: "rules.entries", Unit: "count", Better: "lower"},
	{Name: "rules.tcam_entries", Unit: "count", Better: "lower"},
	{Name: "tensor.matmul_mlp_us", Unit: "us", Better: "lower"},
	{Name: "nn.slowpath_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "rules.compress_ms", Unit: "ms", Better: "lower"},
	{Name: "rules.ternary_expand_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.armed_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "host.calib_mops_min", Unit: "Mops/s", Better: "higher"},
	{Name: "host.calib_mops_max", Unit: "Mops/s", Better: "higher"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host says what a run was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Network    string `json:"network"`
}

// Result is everything one run reports.
type Result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Traced       bool              `json:"traced"`
	Host         Host              `json:"host"`
	InputsSHA256 string            `json:"inputs_sha256"`
	Attempted    int               `json:"ops_attempted"`
	Failed       int               `json:"ops_failed"`
	Failures     []string          `json:"failures,omitempty"`
	Counts       map[string]int    `json:"counts"`
	Metrics      map[string]Metric `json:"metrics"`
	// Samples are the window's raw samples behind the estimators, in the
	// order they were taken.
	Samples map[string][]float64 `json:"samples"`

	decls []Decl
	spans *spanRec
}

func newResult(p Params, seed int64, seconds float64, traced bool) *Result {
	res := &Result{
		Workload: p.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]Metric{}, decls: EndToEnd,
		Host: Host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Network: "loopback TCP, no injected delay",
		},
	}
	if traced {
		res.decls = PerLayer
	}
	return res
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// set records a declared metric; an undeclared name is a harness bug.
func (r *Result) set(name string, v float64) {
	for _, d := range r.decls {
		if d.Name == name {
			r.Metrics[name] = Metric{v, d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared for this kind of run")
}

// Validate checks the result against the declarations: every declared
// metric present exactly once with its unit and a finite value, nothing
// else present.
func (r *Result) Validate() error {
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, d := range r.decls {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(r.decls) {
		return fmt.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(r.decls))
	}
	return nil
}

// Correct reports whether every checked operation passed.
func (r *Result) Correct() bool { return r.Failed == 0 }

// Print writes the human-readable report and, as the last line, the one
// JSON object the benchmark driver reads.
func (r *Result) Print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d %s cpu=%q net=%q\n", r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.CPUModel, r.Host.Network)
	fmt.Fprintf(w, "inputs_sha256 %s\n", r.InputsSHA256)
	for _, k := range []string{"train_repeats", "fwd_rounds", "react_samples", "deploys", "delta_deploys"} {
		fmt.Fprintf(w, "# %s %d\n", k, r.Counts[k])
	}
	for _, d := range r.decls {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %v %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// WriteJSON writes the full result.
func (r *Result) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteSpans writes the harness-side spans of a traced run as JSONL.
func (r *Result) WriteSpans(path string) error {
	if r.spans == nil {
		return fmt.Errorf("spans are recorded only in traced runs")
	}
	return r.spans.writeJSONL(path)
}
