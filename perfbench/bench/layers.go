package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// layers runs the per-layer probes of a traced run and fills res with
// every PerLayer metric. Probes time calls into single exported functions
// on this run's inputs; numbers that describe the traced window itself
// (burst latencies, control-stage splits) come from the spans it left.
func (r *runState) layers(res *Result, calib []float64) error {
	rng := rand.New(rand.NewSource(r.w.seed ^ 0x6c61796572)) // probes draw their own stream
	r.windowLayers(res)
	r.trainLayers(res, rng)
	r.packetLayers(res)
	for _, probe := range []func(*Result, *rand.Rand) error{
		r.matchLayers, r.tableLayers, r.forwardingLayers, r.wireLayers, r.stormLayer, r.deployLayer, r.armedLayer,
	} {
		if err := probe(res, rng); err != nil {
			return err
		}
	}
	calib = append(calib, spinMops())
	res.set("host.calib_mops_min", quantile(calib, 0))
	res.set("host.calib_mops_max", quantile(calib, 1))
	return nil
}

// seconds times one call.
func seconds(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// repeat times n calls of f and returns the fast estimate in seconds.
func repeat(n int, f func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = seconds(f)
	}
	return fastTime(ts)
}

// windowLayers reports what the traced window's spans and counters say.
func (r *runState) windowLayers(res *Result) {
	w := r.w
	res.set("switchsim.burst_us_p50", median(r.burstS)*1e6)
	res.set("switchsim.burst_us_p99", quantile(r.burstS, 0.99)*1e6)
	res.set("switchsim.burst_us_max", quantile(r.burstS, 1)*1e6)
	res.set("bench.tracing_overhead_pct", 100*(median(r.burstSTraced)/median(r.burstS)-1))

	q := w.sw.digestQueue()
	res.set("p4.digest_offered", float64(q.offered))
	res.set("p4.digest_dropped", float64(q.dropped))
	res.set("p4.digest_depth_max", float64(r.depthMax))
	res.set("p4.table_rows", float64(w.sw.entries()))
	res.set("switchsim.miss_share", float64(w.fwd.seqMisses)/float64(len(w.fwd.seq)))
	res.set("switchsim.distinct_keys", float64(len(w.fwd.flows)))

	// Control-stage split of the react samples, from the program's own
	// tracer. The stages tile the digest round trip; what the harness
	// measured beyond their sum is the two Process calls and its own poll.
	traces := assembleTraces(w.tr)
	stage := func(name string) float64 {
		xs := make([]float64, len(traces))
		for i, t := range traces {
			xs[i] = t.stages[name]
		}
		return median(xs)
	}
	totals := make([]float64, len(traces))
	for i, t := range traces {
		totals[i] = t.total
	}
	res.set("p4rt.digest_wait_ms_p50", stage(stageDigestWait)*1e3)
	res.set("controller.fanin_wait_us_p50", stage(stageFanInWait)*1e6)
	res.set("controller.classify_us_p50", stage(stageClassify)*1e6)
	res.set("controller.plan_us_p50", stage(stagePlan)*1e6)
	res.set("controller.install_us_p50", stage(stageInstall)*1e6)
	unattributed := 100 * (1 - median(totals)*1e3/median(r.m2hMs))
	res.set("controller.miss_to_hit_unattributed_pct", unattributed)
	// With a handful of samples the two medians are not of the same misses.
	if len(traces) >= 20 {
		r.ops.check(unattributed <= 10, "traced stages cover only %.1f%% of miss-to-hit (%d traces)", 100-unattributed, len(traces))
	}

	st := w.reprog.ctl.stats()
	res.set("controller.delta_applies", float64(st.deltaApplies))
	res.set("controller.delta_fallbacks", float64(st.deltaFallbacks))
}

func (r *runState) trainLayers(res *Result, rng *rand.Rand) {
	w := r.w
	res.set("iotgen.generate_s", w.generateS)
	names := []string{"fieldsel.select_s", "nn.classifier_s", "dtree.distill_s", "rules.compile_s", "autoenc.drift_model_s"}
	sum := 0.0
	for i, n := range names {
		res.set(n, r.bestStages[i])
		sum += r.bestStages[i]
	}
	best := quantile(r.trainS, 0)
	res.set("p4guard.train_s", median(r.trainS))
	r.ops.check(math.Abs(sum-best) <= 0.05*best, "training stages sum to %.3fs, Train took %.3fs", sum, best)
	res.set("rules.entries", float64(len(w.model.ruleSet().Rules)))
	res.set("rules.tcam_entries", float64(w.model.tableEntries()))

	mm := matmulProbe(rng, 64, 320, 48)
	res.set("tensor.matmul_mlp_us", repeat(200, func() { _ = mm() })*1e6)
	sink := 0
	res.set("nn.slowpath_us_per_pkt", repeat(3, func() {
		for _, f := range w.fleetIn.attacks {
			sink += w.model.slowPath(f)
		}
	})*1e6/float64(len(w.fleetIn.attacks)))
	r.ops.check(sink == 3*len(w.fleetIn.attacks), "slow path stopped flagging the attack pool")

	small := buildRuleSet(w.model.offsets(), w.fleetIn.baseRows[:min(1024, len(w.fleetIn.baseRows))])
	res.set("rules.compress_ms", repeat(3, func() {
		_, err := compressRules(small)
		r.ops.check(err == nil, "compress: %v", err)
	})*1e3)
	res.set("rules.ternary_expand_ms", repeat(5, func() {
		_, err := ternaryExpand(w.model.ruleSet())
		r.ops.check(err == nil, "ternary expansion: %v", err)
	})*1e3)
}

func (r *runState) packetLayers(res *Result) {
	seq := r.w.fwd.seq
	accepted := 0
	res.set("packet.accept_ns_per_pkt", repeat(20, func() {
		for _, f := range seq {
			if acceptFrame(f.Bytes) {
				accepted++
			}
		}
	})*1e9/float64(len(seq)))
	var d frameDesc
	res.set("packet.parse_ns_per_pkt", repeat(20, func() {
		for _, f := range seq {
			if parseFrame(f.Bytes, &d) {
				accepted++
			}
		}
	})*1e9/float64(len(seq)))
	r.ops.check(accepted == 40*len(seq), "parser rejected generated frames: %d of %d accepted", accepted, 40*len(seq))
}

func (r *runState) matchLayers(res *Result, rng *rand.Rand) error {
	w := r.w
	var m *compiledMatcher
	var err error
	res.set("match.compile_ms", repeat(5, func() { m, err = compileMatcher(w.fleetIn.base) })*1e3)
	if err != nil {
		return err
	}
	// Half the keys hit a row, half are the attack pool's misses.
	offs := w.model.offsets()
	keys := make([][]byte, 0, 2*len(w.fleetIn.attacks))
	for _, f := range w.fleetIn.attacks {
		keys = append(keys, extractKey(f, offs), keyInside(rng, w.fleetIn.baseRows[rng.Intn(len(w.fleetIn.baseRows))]))
	}
	hits := 0
	res.set("match.classify_ns_per_key", repeat(10, func() {
		for _, k := range keys {
			if _, ok := classifyKey(m, k); ok {
				hits++
			}
		}
	})*1e9/float64(len(keys)))
	r.ops.check(hits == 10*len(keys)/2, "compiled matcher hit %d of %d keys, want half", hits, 10*len(keys))
	res.set("controller.plan_shards_ms", repeat(5, func() { planShards(w.fleetIn.base, 2) })*1e3)
	return nil
}

func (r *runState) tableLayers(res *Result, rng *rand.Rand) error {
	w := r.w
	seq := w.fwd.seq
	res.set("p4.lookup_ns_per_pkt", repeat(8, func() {
		for _, f := range seq {
			w.sw.lookup(f.Bytes)
		}
	})*1e9/float64(len(seq)))

	base, err := rangeEntries(w.fleetIn.base)
	if err != nil {
		return err
	}
	churned, err := rangeEntries(w.fleetIn.churned)
	if err != nil {
		return err
	}
	t := newRangeTable(keyWidth)
	res.set("p4.replace_ms", repeat(5, func() { err = t.Replace(base) })*1e3)
	if err != nil {
		return err
	}
	var d tableDelta
	ok := false
	res.set("p4.compute_delta_ms", repeat(5, func() { d, ok = computeDelta(base, churned) })*1e3)
	if !ok {
		return fmt.Errorf("bench: base and churned programs have no delta")
	}
	applies := make([]float64, 5)
	for i := range applies {
		if err := t.Replace(base); err != nil {
			return err
		}
		applies[i] = seconds(func() { err = t.Apply(d) })
		if err != nil {
			return err
		}
	}
	res.set("p4.apply_delta_ms", fastTime(applies)*1e3)
	n, h := t.ProgramSignature()
	r.ops.check(signature{n, h} == w.sigChrn, "delta apply left program (%d, %#x), want (%d, %#x)", n, h, w.sigChrn.count, w.sigChrn.hash)

	// Standalone ternary store: no daemon builds a ternary table today
	// (switchsim.New makes a range detector), so this probe is the only
	// number the partitioned ternary store has. One op is one
	// Table.Lookup of one frame, counters included.
	for i, name := range []string{"p4.ternary_lookup_ns_per_pkt_1k", "p4.ternary_lookup_ns_per_pkt_100k"} {
		ns, err := ternaryProbe(rng, w.p.ternaryRows[i])
		if err != nil {
			return err
		}
		res.set(name, ns)
	}
	return nil
}

// ternaryProbe fills a ternary table with rows under eight mask shapes
// and times lookups of frames of which half match a row.
func ternaryProbe(rng *rand.Rand, rows int) (float64, error) {
	masks := make([][]byte, 8)
	for i := range masks {
		m := make([]byte, keyWidth)
		for j := range m {
			m[j] = []byte{0xff, 0xff, 0xf0, 0x00}[rng.Intn(4)]
		}
		m[0] = 0xff
		masks[i] = m
	}
	entries := make([]tableEntry, rows)
	for i := range entries {
		v := make([]byte, keyWidth)
		rng.Read(v)
		m := masks[rng.Intn(len(masks))]
		for j := range v {
			v[j] &= m[j]
		}
		entries[i] = ternaryEntry(rng.Intn(8), v, m, i%2 == 0)
	}
	t := newTernaryTable(keyWidth)
	if err := t.Replace(entries); err != nil {
		return 0, err
	}
	frames := make([][]byte, 16384)
	for i := range frames {
		f := make([]byte, keyWidth)
		rng.Read(f)
		if i%2 == 0 {
			e := entries[rng.Intn(rows)]
			for j := range f {
				f[j] = e.Value[j] | f[j]&^e.Mask[j]
			}
		}
		frames[i] = f
	}
	return repeat(5, func() {
		for _, f := range frames {
			t.Lookup(f)
		}
	}) * 1e9 / float64(len(frames)), nil
}

// forwardingLayers measures the other two forwarding entry points on the
// window's inputs, and the allocations of the gated one.
func (r *runState) forwardingLayers(res *Result, _ *rand.Rand) error {
	w := r.w
	seq := w.fwd.seq
	rates := func(round func()) float64 {
		var xs []float64
		for t0 := time.Now(); len(xs) < 3 || time.Since(t0) < r.slice(time.Second); {
			xs = append(xs, float64(len(seq))/seconds(round))
		}
		return fastRate(xs)
	}
	res.set("switchsim.processbatch_pps", rates(func() {
		for i := 0; i < len(seq); i += burstSize {
			w.sw.processBatch(seq[i : i+burstSize])
		}
		w.sw.drainDigests(digestDrain)
	}))
	res.set("switchsim.perpacket_pps", rates(func() {
		for _, f := range seq {
			w.sw.process(f)
		}
		w.sw.drainDigests(digestDrain)
	}))

	// Allocation count of the gated loop, with the collector held off so
	// neither a cycle nor a trimmed arena pool shows up in it.
	const rounds = 8
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < rounds; n++ {
		for i := 0; i < len(seq); i += burstSize {
			w.sw.run(seq[i : i+burstSize])
		}
		w.sw.drainDigests(digestDrain)
	}
	runtime.ReadMemStats(&after)
	res.set("switchsim.allocs_per_kpkt", float64(after.Mallocs-before.Mallocs)/(rounds*float64(len(seq))/1000))
	return nil
}

// wireLayers times single p4rt calls against a fresh agent.
func (r *runState) wireLayers(res *Result, rng *rand.Rand) error {
	w := r.w
	g, err := newGateway("wire")
	if err != nil {
		return err
	}
	a, err := serve(g)
	if err != nil {
		return err
	}
	defer a.close()
	ctx, cancel := context.WithTimeout(context.Background(), 6*rpcTimeout)
	defer cancel()
	c, err := dial(ctx, a.addr())
	if err != nil {
		return err
	}
	defer c.close()

	base, err := wireProgramOf(w.fleetIn.base)
	if err != nil {
		return err
	}
	churned, err := wireProgramOf(w.fleetIn.churned)
	if err != nil {
		return err
	}
	fwdDelta, ok1 := wireDeltaOf(base, churned)
	backDelta, ok2 := wireDeltaOf(churned, base)
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: base and churned programs have no wire delta")
	}
	res.set("p4rt.program_ms", repeat(5, func() { err = c.program(ctx, base) })*1e3)
	if err != nil {
		return err
	}
	var deltas []float64
	for i := 0; i < 3; i++ {
		for _, d := range []wireDelta{fwdDelta, backDelta} {
			deltas = append(deltas, seconds(func() { err = c.delta(ctx, d) }))
			if err != nil {
				return err
			}
		}
	}
	res.set("p4rt.delta_ms", fastTime(deltas)*1e3)
	n, h := a.signature()
	r.ops.check(signature{n, h} == w.sigBase, "wire deltas left program (%d, %#x), want (%d, %#x)", n, h, w.sigBase.count, w.sigBase.hash)

	rtts := make([]float64, 200)
	for i := range rtts {
		key := make([]byte, keyWidth)
		rng.Read(key)
		rtts[i] = seconds(func() { err = c.writeEntry(ctx, key) })
		if err != nil {
			return err
		}
	}
	res.set("p4rt.write_rtt_us_p50", median(rtts)*1e6)
	r.ops.check(a.entries() == w.sigBase.count+len(rtts), "agent holds %d entries after %d writes onto %d", a.entries(), len(rtts), w.sigBase.count)

	nb, err := frameBytes(msgProgram, base)
	if err != nil {
		return err
	}
	res.set("p4rt.program_frame_bytes", float64(nb))
	if nb, err = frameBytes(msgDelta, fwdDelta); err != nil {
		return err
	}
	res.set("p4rt.delta_frame_bytes", float64(nb))
	return nil
}

// stormLayer injects StormMisses distinct attack keys into the react
// fleet as fast as Process returns and waits for the control plane to
// settle. Every digest must end up installed, suppressed or counted as
// dropped; the install rate is informational.
func (r *runState) stormLayer(res *Result, rng *rand.Rand) error {
	w := r.w
	used := map[string]bool{}
	for _, f := range w.fleetIn.attacks {
		used[string(extractKey(f, w.model.offsets()))] = true
	}
	storm, err := genAttacks(rng, w.p.StormMisses, w.model, w.trainSet, newRowSet(w.fleetIn.baseRows), used)
	if err != nil {
		return err
	}
	before := w.react.ctl.stats()
	switchDropped := func() (n uint64) {
		for _, a := range w.react.agents {
			n += a.digestQueue().dropped
		}
		return n
	}
	droppedBefore := switchDropped()
	t0 := time.Now()
	for i, f := range storm {
		w.react.agents[i%len(w.react.agents)].process(f)
	}
	// Settled: nothing queued anywhere and the digest count has stopped.
	last, lastChange := before.digests, time.Now()
	for time.Since(t0) < 60*time.Second {
		time.Sleep(5 * time.Millisecond)
		if n := w.react.ctl.stats().digests; n != last {
			last, lastChange = n, time.Now()
			continue
		}
		queued := 0
		for _, a := range w.react.agents {
			queued += a.digestQueue().depth
		}
		for _, q := range w.react.ctl.fanIn() {
			queued += q.depth
		}
		if queued == 0 && time.Since(lastChange) > 100*time.Millisecond {
			break
		}
	}
	after := w.react.ctl.stats()
	for i, a := range w.react.agents {
		q := a.digestQueue()
		r.ops.check(q.balanced() && q.depth == 0, "storm: switch %d digest queue %+v", i, q)
	}
	for i, q := range w.react.ctl.fanIn() {
		r.ops.check(q.balanced() && q.depth == 0, "storm: fan-in %d %+v", i, q)
	}
	installs := after.installs - before.installs
	droppedBatches := after.droppedBatches - before.droppedBatches
	if switchDropped() == droppedBefore && droppedBatches == 0 {
		r.ops.check(installs == len(storm), "storm: %d installs for %d distinct attack keys with nothing dropped", installs, len(storm))
	}
	res.set("controller.storm_installs_per_s", float64(installs)/lastChange.Sub(t0).Seconds())
	res.set("controller.storm_dropped_batches", float64(droppedBatches))
	res.set("controller.mirror_suppressed", float64(after.suppressed))
	return nil
}

// deployLayer forwards on one goroutine through a reprogram-fleet switch
// while delta deploys land on it.
func (r *runState) deployLayer(res *Result, _ *rand.Rand) error {
	w := r.w
	ctx, cancel := context.WithTimeout(context.Background(), 6*rpcTimeout)
	defer cancel()
	var err error
	a := w.reprog.agents[0]
	seq := w.fwd.seq
	var stop atomic.Bool
	var wg sync.WaitGroup
	var bursts []float64
	var elapsed float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for !stop.Load() {
			for i := 0; i < len(seq) && !stop.Load(); i += burstSize {
				bursts = append(bursts, seconds(func() { a.run(seq[i : i+burstSize]) }))
			}
		}
		elapsed = time.Since(t0).Seconds()
	}()
	for i := 0; i < 20 && err == nil; i++ {
		// The window left the churned set deployed; alternate from there.
		if i%2 == 0 {
			err = w.reprog.ctl.deploy(ctx, w.fleetIn.base, true, true)
		} else {
			err = w.reprog.ctl.deploy(ctx, w.fleetIn.churned, true, true)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	r.checkSignatures(w.reprog, w.sigChrn, "deploys under forwarding")
	res.set("switchsim.pps_during_deploy", float64(len(bursts)*burstSize)/elapsed)
	res.set("switchsim.burst_us_p99_during_deploy", quantile(bursts, 0.99)*1e6)
	res.set("switchsim.burst_us_max_during_deploy", quantile(bursts, 1)*1e6)
	return nil
}

// armedLayer compares forwarding on two identically programmed switches,
// one of them with every observability instrument armed.
func (r *runState) armedLayer(res *Result, _ *rand.Rand) error {
	w := r.w
	var gws [2]*gateway
	for i := range gws {
		g, err := newGateway(fmt.Sprintf("armed%d", i))
		if err != nil {
			return err
		}
		if err := g.install(w.fwd.rules, false); err != nil {
			return err
		}
		gws[i] = g
	}
	if err := gws[1].armObservability(w.model, w.trainSet); err != nil {
		return err
	}
	var rates [2][]float64
	seq := w.fwd.seq
	for n := 0; n < 24; n++ {
		g := gws[n%2]
		rates[n%2] = append(rates[n%2], float64(len(seq))/seconds(func() {
			for i := 0; i < len(seq); i += burstSize {
				g.run(seq[i : i+burstSize])
			}
			g.drainDigests(digestDrain)
		}))
	}
	res.set("telemetry.armed_overhead_pct", 100*(1-fastRate(rates[1])/fastRate(rates[0])))
	return nil
}
