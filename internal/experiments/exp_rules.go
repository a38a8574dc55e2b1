package experiments

import (
	"fmt"
	"strconv"

	"p4guard"
	"p4guard/internal/metrics"
)

// runRF3 reproduces the efficiency figure: distilled-tree depth trades
// rule-table cost (entries, TCAM bits) against accuracy.
func runRF3(cfg Config) (*Result, error) {
	splits, err := datasets(cfg)
	if err != nil {
		return nil, err
	}
	pair := splits["wifi-mqtt"]
	depths := []int{2, 3, 4, 6, 8, 10, 12}
	if cfg.Quick {
		depths = []int{2, 4, 8}
	}
	var rows [][]string
	for _, depth := range depths {
		pipe, err := p4guard.Train(pair[0], p4guard.Config{
			Seed: cfg.Seed, NumFields: 6, TreeDepth: depth,
		})
		if err != nil {
			return nil, fmt.Errorf("RF3 depth %d: %w", depth, err)
		}
		preds, err := pipe.Predict(pair[1])
		if err != nil {
			return nil, err
		}
		conf, err := metrics.FromPredictions(preds, pair[1].BinaryLabels())
		if err != nil {
			return nil, err
		}
		cost, err := pipe.RuleSet().Cost()
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			strconv.Itoa(depth),
			strconv.Itoa(pipe.Tree().Leaves()),
			strconv.Itoa(len(pipe.RuleSet().Rules)),
			strconv.Itoa(cost.Entries),
			strconv.Itoa(cost.Bits),
			pct(conf.Accuracy()),
			f3(pipe.Fidelity(pair[1])),
		})
	}
	return &Result{
		ID: "R-F3", Title: "Rule-table cost vs accuracy (tree depth sweep)",
		Lines: table([]string{"depth", "leaves", "rules", "tcam entries", "tcam bits", "acc", "fidelity"}, rows),
	}, nil
}

// runRT3 reproduces the training-cost table: the per-stage wall time of
// one p4guard.Train per scenario.
func runRT3(cfg Config) (*Result, error) {
	splits, err := datasets(cfg)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, name := range scenarioOrder() {
		pair := splits[name]
		pipe, err := p4guard.Train(pair[0], p4guard.Config{Seed: cfg.Seed, NumFields: 6})
		if err != nil {
			return nil, fmt.Errorf("RT3 %s: %w", name, err)
		}
		tm := pipe.Timings
		total := tm.FieldSelection + tm.Classifier + tm.Distillation + tm.RuleCompile
		rows = append(rows, []string{
			name,
			strconv.Itoa(pair[0].Len()),
			tm.FieldSelection.Round(1e6).String(),
			tm.Classifier.Round(1e6).String(),
			tm.Distillation.Round(1e6).String(),
			tm.RuleCompile.Round(1e6).String(),
			total.Round(1e6).String(),
		})
	}
	return &Result{
		ID: "R-T3", Title: "Training cost breakdown",
		Lines: table([]string{"dataset", "train pkts", "stage1 select", "stage2 mlp", "distill", "compile", "total"}, rows),
	}, nil
}

// runRF7 reproduces the distillation-fidelity figure: boundary-sample
// augmentation vs student/teacher agreement and end accuracy.
func runRF7(cfg Config) (*Result, error) {
	splits, err := datasets(cfg)
	if err != nil {
		return nil, err
	}
	pair := splits["wifi-coap"]
	budgets := []int{1, 2, 4, 8}
	if cfg.Quick {
		budgets = []int{1, 4}
	}
	var rows [][]string
	for _, b := range budgets {
		pipe, err := p4guard.Train(pair[0], p4guard.Config{
			Seed: cfg.Seed, NumFields: 6, BoundaryPerSample: b,
		})
		if err != nil {
			return nil, fmt.Errorf("RF7 budget %d: %w", b, err)
		}
		preds, err := pipe.Predict(pair[1])
		if err != nil {
			return nil, err
		}
		conf, err := metrics.FromPredictions(preds, pair[1].BinaryLabels())
		if err != nil {
			return nil, err
		}
		_, entries := pipe.TableCost()
		rows = append(rows, []string{
			strconv.Itoa(b),
			f3(pipe.Fidelity(pair[1])),
			pct(conf.Accuracy()),
			strconv.Itoa(entries),
		})
	}
	return &Result{
		ID: "R-F7", Title: "Distillation fidelity vs augmentation budget",
		Lines: table([]string{"boundary/sample", "fidelity", "acc", "tcam entries"}, rows),
	}, nil
}
