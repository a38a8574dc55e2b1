// MQTT firewall: program the behavioural gateway switch with learned rules
// and watch it shield an MQTT broker from a mixed attack campaign —
// per-attack-kind drop rates straight from the data plane.
package main

import (
	"fmt"
	"os"
	"sort"

	"p4guard"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
	"p4guard/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mqtt-firewall:", err)
		os.Exit(1)
	}
}

func run() error {
	// Train on yesterday's traffic...
	trainDS, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 7, Packets: 3000})
	if err != nil {
		return err
	}
	pipe, err := p4guard.Train(trainDS, p4guard.Config{Seed: 7, NumFields: 6})
	if err != nil {
		return err
	}
	fmt.Printf("firewall key: %s\n", pipe.DescribeFields())

	// ...deploy into the gateway switch...
	sw, err := switchsim.New("mqtt-gw", trainDS.Link)
	if err != nil {
		return err
	}
	entries, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow})
	if err != nil {
		return err
	}
	fmt.Printf("installed %d TCAM entries\n", entries)

	// ...and face today's attack campaign (different seed, heavier mix).
	liveDS, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{
		Seed: 99, Packets: 4000, AttackFrac: 0.5,
	})
	if err != nil {
		return err
	}
	// One batched pass through the data plane: the switch snapshots its
	// tables once and returns a verdict per packet.
	pkts := make([]*packet.Packet, len(liveDS.Samples))
	for i, s := range liveDS.Samples {
		pkts[i] = s.Pkt
	}
	verdicts := sw.ProcessBatch(pkts)

	dropped := make(map[string]int)
	total := make(map[string]int)
	var benignDropped, benignTotal int
	for i, s := range liveDS.Samples {
		v := verdicts[i]
		if s.Label == trace.LabelBenign {
			benignTotal++
			if !v.Allowed {
				benignDropped++
			}
			continue
		}
		total[s.Attack]++
		if !v.Allowed {
			dropped[s.Attack]++
		}
	}

	kinds := make([]string, 0, len(total))
	for k := range total {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("\nattack kind            dropped/total")
	for _, k := range kinds {
		fmt.Printf("%-22s %5d/%-5d (%.1f%%)\n", k, dropped[k], total[k],
			100*float64(dropped[k])/float64(total[k]))
	}
	fmt.Printf("%-22s %5d/%-5d (%.2f%% collateral)\n", "benign",
		benignDropped, benignTotal, 100*float64(benignDropped)/float64(benignTotal))

	st := sw.Stats()
	fmt.Printf("\nswitch: %d pkts at %.0f pkts/sec (%v per packet)\n",
		st.Packets, st.PPS(), st.PerPacket())
	det := sw.DetectorStats()
	fmt.Printf("detector table: %d entries, %d hits, %d misses\n", det.Entries, det.Hits, det.Misses)
	return nil
}
