package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// ops counts checked operations; a failed check keeps its first few
// messages for the report.
type ops struct {
	attempted, failed int
	notes             []string
}

func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// Slice budgets of the interleaved window. The host's slow spells last
// seconds, so the phases take turns in short slices instead of one block
// each: every metric samples the whole window, and a fast-tail estimator
// then needs the host to be undisturbed for a twentieth of the run, not
// for a twentieth of one phase's block.
const (
	fwdSlice    = 250 * time.Millisecond
	reactSlice  = 400 * time.Millisecond
	reprogSlice = 250 * time.Millisecond
	// Traced runs also retrain, for the per-layer training split:
	// trainShare of their window, spread evenly.
	trainShare      = 0.38
	maxTrainRepeats = 8
	pollEvery       = 50 * time.Microsecond
	// allocRepeats is how many deploy pairs deployAlloc measures.
	allocRepeats = 3
)

// runState is one run's world plus every sample the window collects.
type runState struct {
	w   *world
	rec *spanRec
	ops ops

	sliceScale float64 // shrinks slices when the window is very short
	windowEnd  time.Time

	// forwarding
	burstS       []float64 // seconds per burst, rounds without spans
	burstSTraced []float64 // seconds per burst, rounds with spans
	rounds       int
	depthMax     int

	// react
	m2hMs        []float64
	nextAttack   int
	reactAllocMB float64 // allocated inside react slices
	reactAllocN  int     // samples those slices took

	// reprogram
	deployMs, deltaMs []float64

	// train
	trainS     []float64
	bestStages [5]float64
	detectF1   float64
}

func (r *runState) slice(d time.Duration) time.Duration {
	return time.Duration(float64(d) * r.sliceScale)
}

// turn repeats unit until its slice budget or the window is used up.
func (r *runState) turn(budget time.Duration, unit func() bool) {
	t0 := time.Now()
	for unit() && time.Since(t0) < r.slice(budget) && time.Now().Before(r.windowEnd) {
	}
}

// verifyForwarding sends every distinct flow through ProcessBatch and
// compares each verdict with what the generated rows say it must be and
// with the detector's own linear-scan oracle. It runs before the window;
// the digests it causes are drained away.
func (r *runState) verifyForwarding() {
	w := r.w
	digested := 0
	for i := 0; i < len(w.fwd.flows); i += burstSize {
		burst := w.fwd.flows[i:min(i+burstSize, len(w.fwd.flows))]
		for j, v := range w.sw.processBatch(burst) {
			hit, matched := w.fwd.rowSet.find(extractKey(burst[j], fwdKeyOffsets))
			r.ops.check(v.Matched == matched && v.Digested == !matched && v.Allowed == !(matched && classDrops(hit.class)),
				"flow %d: verdict %+v, rows say matched=%v class=%d", i+j, v, matched, hit.class)
			allowed, digest, matched := w.sw.oracle(burst[j].Bytes)
			r.ops.check(v.Allowed == allowed && v.Digested == digest && v.Matched == matched,
				"flow %d: verdict %+v, oracle allowed=%v digest=%v matched=%v", i+j, v, allowed, digest, matched)
			if v.Digested {
				digested++
			}
		}
	}
	r.ops.check(digested == w.fwd.misses, "forwarding: %d flows missed, inputs built %d", digested, w.fwd.misses)
	for w.sw.drainDigests(4096) > 0 {
	}
}

// fwdRound forwards one round closed-loop on one goroutine, timing every
// burst, and drains digests once, as the p4rt pump would between bursts
// of work. In traced runs every other round also records a span per
// burst, so the two sets of burst times give the tracing overhead.
func (r *runState) fwdRound() {
	w := r.w
	traced := r.rec != nil && r.rounds%2 == 0
	op := int64(r.rounds)
	r.rounds++
	seq := w.fwd.seq
	if traced {
		root := r.rec.begin("fwd.round", -1, op)
		for i := 0; i < len(seq); i += burstSize {
			t0 := time.Now()
			s := r.rec.begin("switchsim.Run", root, op)
			w.sw.run(seq[i : i+burstSize])
			r.rec.end(s)
			r.burstSTraced = append(r.burstSTraced, time.Since(t0).Seconds())
		}
		if d := w.sw.digestQueue().depth; d > r.depthMax {
			r.depthMax = d
		}
		s := r.rec.begin("switchsim.DrainDigests", root, op)
		w.sw.drainDigests(digestDrain)
		r.rec.end(s)
		r.rec.end(root)
		return
	}
	for i := 0; i < len(seq); i += burstSize {
		t0 := time.Now()
		w.sw.run(seq[i : i+burstSize])
		r.burstS = append(r.burstS, time.Since(t0).Seconds())
	}
	w.sw.drainDigests(digestDrain)
}

// pollUntil checks done every pollEvery until it holds or the deadline
// passes, sleeping in the kernel in between. time.Sleep will not do: a
// goroutine sleeping on an otherwise idle P is woken by epoll_wait, whose
// timeout is whole milliseconds, so a 50 µs sleep returns after 1.06 ms
// and would add up to a millisecond of the harness's own to every sample.
func pollUntil(deadline time.Time, done func() bool) bool {
	nap := syscall.NsecToTimespec(int64(pollEvery))
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		_ = syscall.Nanosleep(&nap, nil) // cut short by a signal, it only polls sooner
	}
	return true
}

// reactSample injects one miss and waits for the same frame to be
// dropped by the entry the controller installs in response. It runs with
// two Ps (see reactTurn): this goroutine waits on one, the switches'
// servers and the controller have the other.
func (r *runState) reactSample() bool {
	w := r.w
	if r.nextAttack >= len(w.fleetIn.attacks) {
		return false
	}
	i := r.nextAttack
	r.nextAttack++
	frame := w.fleetIn.attacks[i]
	a := w.react.agents[i%len(w.react.agents)]
	before := a.entries()

	root := r.rec.begin("react.miss", -1, int64(i))
	t0 := time.Now()
	s := r.rec.begin("switchsim.Process", root, int64(i))
	v := a.process(frame)
	r.rec.end(s)
	if !r.ops.check(v.Digested && !v.Matched, "react %d: first packet was not a miss: %+v", i, v) {
		r.rec.end(root)
		return true
	}
	s = r.rec.begin("wait.install", root, int64(i))
	installed := pollUntil(t0.Add(reactTimeout), func() bool { return a.entries() != before })
	r.rec.end(s)
	s = r.rec.begin("switchsim.Process", root, int64(i))
	v = a.process(frame)
	r.rec.end(s)
	dt := time.Since(t0)
	r.rec.end(root)
	if r.ops.check(installed && v.Matched && !v.Allowed, "react %d: no drop entry within %v (verdict %+v)", i, reactTimeout, v) {
		r.m2hMs = append(r.m2hMs, dt.Seconds()*1e3)
	}
	pause := time.Duration(w.fleetIn.pauses[i] * float64(time.Millisecond))
	pollUntil(time.Now().Add(pause), func() bool { return false })
	return true
}

func (r *runState) checkSignatures(f *fleet, want signature, what string) {
	for i, a := range f.agents {
		n, h := a.signature()
		r.ops.check(signature{n, h} == want, "%s: switch %d holds program (%d, %#x), want (%d, %#x)", what, i, n, h, want.count, want.hash)
	}
}

// reprogPair is one full-swap deploy of the base set followed by one
// delta deploy of the churned set.
func (r *runState) reprogPair() {
	w := r.w
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	op := int64(len(r.deployMs))

	s := r.rec.begin("controller.Deploy(full)", -1, op)
	t0 := time.Now()
	err := w.reprog.ctl.deploy(ctx, w.fleetIn.base, false, true)
	dt := time.Since(t0)
	r.rec.end(s)
	if r.ops.check(err == nil, "deploy: %v", err) {
		r.deployMs = append(r.deployMs, dt.Seconds()*1e3)
		r.checkSignatures(w.reprog, w.sigBase, "full deploy")
	}

	s = r.rec.begin("controller.Deploy(delta)", -1, op)
	t0 = time.Now()
	err = w.reprog.ctl.deploy(ctx, w.fleetIn.churned, true, true)
	dt = time.Since(t0)
	r.rec.end(s)
	if r.ops.check(err == nil, "delta deploy: %v", err) {
		r.deltaMs = append(r.deltaMs, dt.Seconds()*1e3)
		r.checkSignatures(w.reprog, w.sigChrn, "delta deploy")
	}
}

// trainRepeat retrains on the run's trace. Training is deterministic, so
// every repeat must reproduce the set-up's rule set.
func (r *runState) trainRepeat() error {
	w := r.w
	s := r.rec.begin("p4guard.Train", -1, int64(len(r.trainS)))
	t0 := time.Now()
	m, err := train(w.trainSet, w.seed)
	dt := time.Since(t0).Seconds()
	r.rec.end(s)
	if !r.ops.check(err == nil, "train: %v", err) {
		return err
	}
	if len(r.trainS) == 0 || dt < quantile(r.trainS, 0) {
		r.bestStages = m.stageSeconds()
	}
	r.trainS = append(r.trainS, dt)

	got, err := signatureOf(m.ruleSet())
	want := w.sigModel
	r.ops.check(err == nil && got == want, "train: repeat produced rules (%d, %#x), set-up produced (%d, %#x)", got.count, got.hash, want.count, want.hash)
	return nil
}

// verifyModel scores the set-up's pipeline on the held-out trace and
// forwards that trace through a switch holding the learned rules: the
// data plane must decide every packet as the pipeline's own classifier
// does.
func (r *runState) verifyModel() error {
	m := r.w.model
	var err error
	if r.detectF1, err = m.f1(r.w.testSet); err != nil {
		return err
	}
	r.ops.check(r.detectF1 >= minDetectF1, "detect_f1 %.4f below %.2f", r.detectF1, minDetectF1)
	g, err := newGateway("learned")
	if err != nil {
		return err
	}
	if err := g.install(m.ruleSet(), true); err != nil {
		return err
	}
	pkts := make([]*Packet, len(r.w.testSet.Samples))
	for i, s := range r.w.testSet.Samples {
		pkts[i] = s.Pkt
	}
	for i, v := range g.processBatch(pkts) {
		want := m.classify(pkts[i])
		r.ops.check(v.Class == want && v.Allowed == !classDrops(want),
			"held-out packet %d: switch says class %d allowed=%v, pipeline says class %d", i, v.Class, v.Allowed, want)
	}
	return nil
}

// window runs the measured part of a run for about d: forwarding, react
// and reprogram slices in turn, and in traced runs training repeats
// spread evenly among them. Forwarding and training run under the
// collector's default pacing; quietTurn says what the other two do.
func (r *runState) window(d time.Duration) error {
	r.sliceScale = math.Min(1, d.Seconds()/10)
	k := 0
	if r.rec != nil {
		k = max(1, min(int(math.Round(trainShare*d.Seconds()/r.w.trainS)), maxTrainRepeats))
	}
	start := time.Now()
	r.windowEnd = start.Add(d)
	// Every phase gets at least one turn, however short the window.
	for trained, cycles := 0, 0; ; cycles++ {
		if trained < k && time.Since(start) >= d*time.Duration(trained)/time.Duration(k) {
			if err := r.trainRepeat(); err != nil {
				return err
			}
			trained++
		}
		if time.Since(start) >= d && cycles > 0 {
			return nil
		}
		r.turn(fwdSlice, func() bool {
			r.fwdRound()
			if r.rec != nil {
				r.fwdRound() // traced runs forward in pairs: one round with spans, one without
			}
			return true
		})
		r.reactTurn()
		r.quietTurn(reprogSlice, func() bool { r.reprogPair(); return true })
	}
}

// quietTurn is turn with the collector held off, and one collection when
// the slice is over. A cold full deploy leaves 35 MB of garbage and a
// reactive install there 2 MB, so under the default pacing every deploy
// and every twenty-fifth install starts a cycle that is marked on the
// operation's own time; marking is pointer chasing through memory the
// host's other guests compete for. It made the p10 deploy of four
// same-seed runs range 54-73 ms against 44-48 ms without, and the p99
// miss-to-hit of ten runs 14-21 ms against 12.0-12.7 ms. What the clock
// no longer sees is gated from the other side, as deploy_alloc_mb,
// delta_alloc_mb and react_alloc_kb, which repeat to the third digit.
// Forwarding allocates nothing and keeps the default pacing.
func (r *runState) quietTurn(budget time.Duration, unit func() bool) {
	pacing := debug.SetGCPercent(-1)
	r.turn(budget, unit)
	runtime.GC()
	debug.SetGCPercent(pacing)
}

// reactTurn gives the react slice a second P for the harness to wait on,
// so that what it times is the program's own latency (pollUntil). The
// rest of the run has one P: the host's two CPUs are hyperthreads of one
// core, and with a second P the runtime's background work on the sibling
// made forwarding bursts bimodal (17.5 M and 9.9 M pkts/s).
func (r *runState) reactTurn() {
	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(1)
	n := len(r.m2hMs)
	r.reactAllocMB += allocMB(func() { r.quietTurn(reactSlice, r.reactSample) })
	r.reactAllocN += len(r.m2hMs) - n
}

// allocMB returns how much f allocates, in MB.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// deployAlloc measures, before the window, what one full and one delta
// deploy allocate across controller, wire and both switches.
func (r *runState) deployAlloc() (fullMB, deltaMB float64, err error) {
	w := r.w
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	var full, delta []float64
	for i := 0; i < allocRepeats && err == nil; i++ {
		full = append(full, allocMB(func() { err = w.reprog.ctl.deploy(ctx, w.fleetIn.base, false, true) }))
		if err == nil {
			delta = append(delta, allocMB(func() { err = w.reprog.ctl.deploy(ctx, w.fleetIn.churned, true, true) }))
		}
	}
	r.checkSignatures(w.reprog, w.sigChrn, "deploys measured for allocation")
	return median(full), median(delta), err
}

// verifyAccounting checks every counted queue after the window.
func (r *runState) verifyAccounting() {
	w := r.w
	q := w.sw.digestQueue()
	r.ops.check(q.balanced(), "forwarding switch digest queue: %+v", q)
	want := uint64(w.fwd.misses + w.fwd.seqMisses*r.rounds)
	r.ops.check(q.offered == want, "forwarding switch offered %d digests, inputs imply %d", q.offered, want)

	for i, a := range w.react.agents {
		q := a.digestQueue()
		r.ops.check(q.balanced(), "react switch %d digest queue: %+v", i, q)
	}
	for i, q := range w.react.ctl.fanIn() {
		r.ops.check(q.balanced(), "react fan-in %d: %+v", i, q)
	}
	st := w.reprog.ctl.stats()
	r.ops.check(st.deltaApplies == 2*(len(r.deltaMs)+allocRepeats) && st.deltaFallbacks == 0,
		"reprogram: %d delta applies and %d fallbacks over %d delta deploys to 2 switches", st.deltaApplies, st.deltaFallbacks, len(r.deltaMs))
	r.ops.check(w.react.ctl.allReady() && w.reprog.ctl.allReady(), "a switch left the Ready state")
}

// heapMB releases the generated inputs and the burst samples and returns
// the live heap: the programmed switch, both fleets and the controllers'
// desired state. Live bytes (HeapAlloc after a collection) repeat to a
// fraction of a percent; HeapInuse adds span fragmentation, which
// differed by 2-5% between same-code runs.
func (r *runState) heapMB() float64 {
	r.burstS = nil
	r.w.fwd = fwdInputs{}
	r.w.fleetIn = fleetInputs{}
	r.w.trainSet, r.w.testSet = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// spinMops runs a fixed integer kernel and returns its speed. It shows
// which mode of the host a run saw; no metric is ever rescaled by it.
func spinMops() float64 {
	const n = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	dt := time.Since(t0).Seconds()
	if x == 0 {
		return 0
	}
	return n / dt / 1e6
}

// Run executes one benchmark run: set-up (repeated, the last one kept),
// checks, the measured window, accounting checks, and in traced runs the
// per-layer probes.
func Run(p Params, seed int64, seconds float64, traced bool) (*Result, error) {
	// One P, except in react slices (reactTurn). The host's two CPUs are
	// hyperthreads of one core: with a second P the runtime's own
	// background work (collector, timers, spinning threads) runs on the
	// sibling and halves the forwarding goroutine's speed for
	// unpredictable stretches. On one P the same burst times repeat to
	// within a percent.
	runtime.GOMAXPROCS(1)
	res := newResult(p, seed, seconds, traced)

	var setupS []float64
	var w *world
	for i := 0; i < p.setupRepeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = setup(p, seed, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	res.InputsSHA256 = w.inputsSHA256()

	// Sample buffers get a fixed capacity, so what the harness itself
	// holds at the end is the same on every run and heap_mb moves only
	// with the program's state.
	r := &runState{
		w:        w,
		burstS:   make([]float64, 0, 1<<20),
		m2hMs:    make([]float64, 0, p.attackKeys),
		deployMs: make([]float64, 0, 1<<15),
		deltaMs:  make([]float64, 0, 1<<15),
	}
	if traced {
		r.rec = newSpanRec()
	}
	if err := r.verifyModel(); err != nil {
		return nil, err
	}
	r.verifyForwarding()
	r.checkSignatures(w.react, w.sigBase, "react fleet bring-up")
	r.checkSignatures(w.reprog, w.sigBase, "reprogram fleet bring-up")
	deployAllocMB, deltaAllocMB, err := r.deployAlloc()
	if err != nil {
		return nil, err
	}

	calib := []float64{spinMops()}
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2 // the other half of a traced run belongs to the layer probes
	}
	if err := r.window(d); err != nil {
		return nil, err
	}
	calib = append(calib, spinMops())
	r.verifyAccounting()

	var burstQ []float64
	if traced {
		if err := r.layers(res, calib); err != nil {
			return nil, err
		}
		res.spans = r.rec
	} else {
		burstQ = quantiles(r.burstS)
		res.set("setup_s", median(setupS))
		res.set("fwd_pps", burstSize/quantile(r.burstS, 0.05))
		res.set("miss_to_hit_ms_p50", median(r.m2hMs))
		res.set("miss_to_hit_ms_p99", quantile(r.m2hMs, 0.99))
		res.set("deploy_ms", fastTime(r.deployMs))
		res.set("delta_ms", fastTime(r.deltaMs))
		res.set("deploy_alloc_mb", deployAllocMB)
		res.set("delta_alloc_mb", deltaAllocMB)
		res.set("react_alloc_kb", r.reactAllocMB*1024/float64(r.reactAllocN))
		res.set("detect_f1", r.detectF1)
		res.set("heap_mb", r.heapMB())
	}
	res.Counts = map[string]int{
		"fwd_rounds": r.rounds, "react_samples": len(r.m2hMs),
		"deploys": len(r.deployMs), "delta_deploys": len(r.deltaMs), "train_repeats": len(r.trainS),
	}
	res.Samples = map[string][]float64{
		"setup_s": setupS, "miss_to_hit_ms": r.m2hMs, "deploy_ms": r.deployMs, "delta_ms": r.deltaMs,
		"train_s": r.trainS, "burst_s_quantiles": burstQ,
	}
	res.Attempted, res.Failed, res.Failures = r.ops.attempted, r.ops.failed, r.ops.notes
	return res, nil
}
