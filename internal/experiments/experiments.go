// Package experiments reproduces the paper's evaluation: a registry of
// runners, one per reconstructed table (R-T*) or figure (R-F*), each
// regenerating the rows/series the paper reports — detection quality per
// method and protocol, accuracy vs selected-field count, selector
// ablations, rule-table cost, data-plane vs slow-path throughput,
// universality across protocols, the reactive control loop, training cost,
// and distillation fidelity.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4guard/internal/iotgen"
	"p4guard/internal/telemetry"
	"p4guard/internal/trace"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// Packets per generated dataset (default 3000; Quick overrides).
	Packets int
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Journal, when non-nil, receives a per-experiment manifest:
	// experiment_start (id, title, inputs) and experiment_end (emitted
	// artifact lines, duration, error) events the offline analyzer
	// summarizes per run.
	Journal *telemetry.Journal
}

func (c Config) withDefaults() Config {
	if c.Packets <= 0 {
		c.Packets = 3000
	}
	if c.Quick && c.Packets > 1000 {
		c.Packets = 1000
	}
	return c
}

// Result is one experiment's rendered output.
type Result struct {
	ID    string
	Title string
	Lines []string
}

// String renders the result as a titled block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registered runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// All returns the registry in evaluation order.
func All() []Experiment {
	return []Experiment{
		{"R-T1", "Dataset composition", runRT1},
		{"R-T2", "Detection quality per method per dataset", runRT2},
		{"R-F1", "Accuracy vs number of selected fields", runRF1},
		{"R-F2", "Field-selector ablation", runRF2},
		{"R-F3", "Rule-table cost vs accuracy (tree depth sweep)", runRF3},
		{"R-F4", "Data-plane vs controller-path throughput", runRF4},
		{"R-F5", "Universality across protocols", runRF5},
		{"R-F6", "Reactive control loop", runRF6},
		{"R-T3", "Training cost breakdown", runRT3},
		{"R-F7", "Distillation fidelity vs augmentation budget", runRF7},
		{"R-F8", "Accuracy vs TCAM entry budget", runRF8},
		{"R-F9", "Adaptation: traffic drift and retraining", runRF9},
		{"R-T4", "Attack-kind identification (multi-class rules)", runRT4},
		{"R-F10", "Hybrid defence vs byte-identical replay flood", runRF10},
	}
}

// Run executes the experiment with the given ID, writing a manifest to
// cfg.Journal when one is installed: what ran, with which inputs, what
// it emitted, and how long it took — enough for the analyzer to audit a
// whole evaluation run after the fact.
func Run(id string, cfg Config) (*Result, error) {
	for _, e := range All() {
		if e.ID != id {
			continue
		}
		c := cfg.withDefaults()
		if c.Journal != nil {
			_ = c.Journal.Event("experiment_start", map[string]any{
				"id": e.ID, "title": e.Title,
				"seed": c.Seed, "packets": c.Packets, "quick": c.Quick,
			})
		}
		start := time.Now()
		res, err := e.Run(c)
		if c.Journal != nil {
			fields := map[string]any{
				"id":     e.ID,
				"dur_ns": time.Since(start).Nanoseconds(),
				"ok":     err == nil,
			}
			if err != nil {
				fields["error"] = err.Error()
			} else {
				fields["artifact_lines"] = len(res.Lines)
				fields["artifacts"] = res.Lines
			}
			_ = c.Journal.Event("experiment_end", fields)
		}
		return res, err
	}
	return nil, fmt.Errorf("experiments: unknown id %q", id)
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) []string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	format := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	out := make([]string, 0, len(rows)+2)
	out = append(out, format(header))
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	out = append(out, format(sep))
	for _, row := range rows {
		out = append(out, format(row))
	}
	return out
}

// datasets builds every scenario's train/test split (time-ordered split so
// flow features remain causal).
func datasets(cfg Config) (map[string][2]*trace.Dataset, error) {
	sets, err := iotgen.GenerateAll(iotgen.Config{Seed: cfg.Seed, Packets: cfg.Packets})
	if err != nil {
		return nil, err
	}
	out := make(map[string][2]*trace.Dataset, len(sets))
	for name, ds := range sets {
		train, test, err := ds.Split(0.6)
		if err != nil {
			return nil, err
		}
		out[name] = [2]*trace.Dataset{train, test}
	}
	return out, nil
}

// scenarioOrder returns scenario names in registry order.
func scenarioOrder() []string {
	scs := iotgen.Scenarios()
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name
	}
	return names
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
