// Live gateway: the full distributed deployment in one process — a
// behavioural switch served over the p4rt TCP protocol, an SDN controller
// that trains the two-stage model, deploys rules, classifies table-miss
// digests on the slow path, and reactively installs exact drop entries.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
	"p4guard/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "live-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	// Gateway switch + p4rt agent on a real TCP socket.
	sw, err := switchsim.New("gw-live", packet.LinkEthernet)
	if err != nil {
		return err
	}
	srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("switch agent on %s\n", srv.Addr())

	// Controller: train the full model, but deploy only the rules that
	// fit a deliberately tiny TCAM budget — the rest of the traffic
	// misses, digests to the controller, and exercises the reactive loop.
	trainDS, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 11, Packets: 2500})
	if err != nil {
		return err
	}
	full, err := p4guard.Train(trainDS, p4guard.Config{Seed: 11, NumFields: 6})
	if err != nil {
		return err
	}
	pipe, err := full.TrimToBudget(0, trainDS) // nothing fits: pure slow path + reactive
	if err != nil {
		return err
	}
	// A one-switch deployment is just the degenerate fleet: one shard,
	// replicate policy, the switch explicitly assigned to shard 0.
	ctl := controller.New(pipe, controller.Config{Name: "live-ctl", Reactive: true},
		controller.WithShards(1),
		controller.WithShardPolicy(controller.ShardReplicate))
	defer func() { _ = ctl.Close() }()
	if err := ctl.ConnectShard(context.Background(), srv.Addr(), 0); err != nil {
		return err
	}
	if err := ctl.Deploy(context.Background(), pipe.RuleSet(),
		controller.WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		return err
	}
	fmt.Printf("controller connected to %v, %d rules deployed (key: %s)\n",
		ctl.Switches(), len(pipe.RuleSet().Rules), pipe.DescribeFields())

	// Live traffic, two waves of the same campaign.
	liveDS, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 77, Packets: 2500})
	if err != nil {
		return err
	}
	pkts := make([]*packet.Packet, len(liveDS.Samples))
	for i, s := range liveDS.Samples {
		pkts[i] = s.Pkt
	}
	for wave := 1; wave <= 2; wave++ {
		// Each wave is one batched pass; verdicts come back per packet so
		// the accounting below stays exact.
		verdicts := sw.ProcessBatch(pkts)
		var droppedAttacks, attacks int
		for i, s := range liveDS.Samples {
			if s.Label != trace.LabelBenign {
				attacks++
				if !verdicts[i].Allowed {
					droppedAttacks++
				}
			}
		}
		// Let the control loop drain digests and install reactions.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			st := sw.Stats()
			if ctl.Stats().DigestsProcessed >= st.Digested-int(sw.DigestQueueStats().Dropped) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)

		cst := ctl.Stats()
		fmt.Printf("\nwave %d: data plane dropped %d/%d attacks (%.1f%%)\n",
			wave, droppedAttacks, attacks, 100*float64(droppedAttacks)/float64(attacks))
		fmt.Printf("controller: digests=%d slow-path attacks=%d reactive installs=%d\n",
			cst.DigestsProcessed, cst.SlowPathAttacks, cst.ReactiveInstalls)
	}
	fmt.Println("\nwave 2 should drop more at the data plane: reactive entries from wave 1 now match.")

	// Fleet view of the single gateway: state, shard, watermarks, fan-in.
	for _, st := range ctl.FleetStatus() {
		fmt.Printf("fleet: %s (%s) shard=%d state=%s epoch=%d/%d reactive=%d/%d fan-in offered=%d drained=%d dropped=%d\n",
			st.Addr, st.Name, st.Shard, st.State, st.AppliedEpoch, st.DesiredEpoch,
			st.AppliedReactive, st.ReactiveLog, st.FanIn.Offered, st.FanIn.Drained, st.FanIn.Dropped)
	}
	return nil
}
