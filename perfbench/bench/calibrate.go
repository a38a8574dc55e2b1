package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// Calibrate repeats the acceptance rule the benchmark is held to: every
// workload is run n times in each of two sets, the sets interleaved so
// both see the same stretch of host time, every run a fresh process on a
// fresh seed. For each workload and end-to-end metric it prints each
// set's median and quartile spread (as a share of the median) and how
// much worse the second median is than the first. A metric's bound has
// to sit above both numbers with room to spare.
func Calibrate(out io.Writer, n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][2][]float64{}
	for i := 0; i < n; i++ {
		for _, p := range Workloads {
			for set := 0; set < 2; set++ {
				s := seed + int64(2*i+set)
				m, err := runChild(self, p.Name, s, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", p.Name, s, err)
				}
				fmt.Fprintf(out, "# run %d/%d %s set %d seed %d:", i+1, n, p.Name, set, s)
				for _, d := range EndToEnd {
					fmt.Fprintf(out, " %s=%.6g", d.Name, m[d.Name].Value)
				}
				fmt.Fprintln(out)
				if values[p.Name] == nil {
					values[p.Name] = map[string][2][]float64{}
				}
				for name, v := range m {
					sets := values[p.Name][name]
					sets[set] = append(sets[set], v.Value)
					values[p.Name][name] = sets
				}
			}
		}
	}
	fmt.Fprintf(out, "%-6s %-20s %14s %8s %14s %8s %8s %7s\n", "wkld", "metric", "median_A", "iqr_A", "median_B", "iqr_B", "worse_B", "bound")
	for _, p := range Workloads {
		for _, d := range EndToEnd {
			sets := values[p.Name][d.Name]
			medA, iqrA := spread(sets[0])
			medB, iqrB := spread(sets[1])
			worse := (medB - medA) / medA
			if d.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(out, "%-6s %-20s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %6.1f%%\n",
				p.Name, d.Name, medA, 100*iqrA, medB, 100*iqrB, 100*worse, 100*d.Bound)
		}
	}
	return nil
}

// spread returns the median and the quartile distance as a share of it.
func spread(xs []float64) (med, iqr float64) {
	if len(xs) < 2 {
		return median(xs), math.NaN()
	}
	med = median(xs)
	q1, q3 := quartiles(xs)
	return med, (q3 - q1) / math.Abs(med)
}

// runChild runs one untraced benchmark run in a fresh process and parses
// the result line.
func runChild(self, workload string, seed int64, seconds float64) (map[string]Metric, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var line struct {
		Correct bool              `json:"correct"`
		Metrics map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported failed operations")
	}
	return line.Metrics, nil
}
