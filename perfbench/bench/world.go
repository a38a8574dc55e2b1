package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// fleet is two gateways served over loopback p4rt and one controller
// connected to both.
type fleet struct {
	agents []*agent
	ctl    *fleetController
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.ctl != nil {
		f.ctl.close()
	}
	for _, a := range f.agents {
		a.close()
	}
}

// newFleet starts the gateways, connects the controller and deploys rs.
func newFleet(name string, m *model, rs *RuleSet, reactive, missAllow bool, tr *tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < 2; i++ {
		g, err := newGateway(fmt.Sprintf("%s-gw%d", name, i))
		if err != nil {
			f.close()
			return nil, err
		}
		a, err := serve(g)
		if err != nil {
			f.close()
			return nil, err
		}
		if tr != nil {
			a.setTracer(tr)
		}
		f.agents = append(f.agents, a)
	}
	f.ctl = newController(m, reactive, tr)
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	for _, a := range f.agents {
		if err := f.ctl.connect(ctx, a.addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.ctl.deploy(ctx, rs, false, missAllow); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

type signature struct {
	count int
	hash  uint64
}

func signatureOf(rs *RuleSet) (signature, error) {
	ref, err := newGateway("ref")
	if err != nil {
		return signature{}, err
	}
	if err := ref.install(rs, true); err != nil {
		return signature{}, err
	}
	n, h := ref.signature()
	return signature{n, h}, nil
}

// world is everything one run measures against, built from the seed.
type world struct {
	p    Params
	seed int64

	trainSet, testSet *Dataset
	model             *model
	fwd               fwdInputs
	fleetIn           fleetInputs

	sw       *gateway  // standalone forwarding switch
	react    *fleet    // reactive controller, miss action digest
	reprog   *fleet    // reprogramming target, miss action allow
	tr       *tracer   // armed on the react fleet in traced runs
	sigBase  signature // of fleetIn.base
	sigChrn  signature // of fleetIn.churned
	sigModel signature // of the trained pipeline's rule set

	// stage seconds of this set-up
	generateS, trainS float64
}

func (w *world) close() {
	w.react.close()
	w.reprog.close()
}

// setup builds a world. It is everything that happens between process
// start and the first measured operation: trace generation, training the
// pipeline that becomes the controllers' slow path, input generation,
// programming the forwarding switch, and bringing both fleets up with
// their base program deployed.
func setup(p Params, seed int64, traced bool) (*world, error) {
	w := &world{p: p, seed: seed}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	var err error
	t0 := time.Now()
	if w.trainSet, err = generateTrace(p.Scenario, seed, p.TracePackets); err != nil {
		return nil, err
	}
	if w.testSet, err = generateTrace(p.Scenario, seed+1, p.TracePackets); err != nil {
		return nil, err
	}
	w.generateS = time.Since(t0).Seconds() / 2

	t0 = time.Now()
	if w.model, err = train(w.trainSet, seed); err != nil {
		return nil, err
	}
	w.trainS = time.Since(t0).Seconds()

	rng := rand.New(rand.NewSource(seed))
	if w.fwd, err = genFwd(rng, p); err != nil {
		return nil, err
	}
	if w.fleetIn, err = genFleet(rng, p, w.model, w.trainSet); err != nil {
		return nil, err
	}
	if w.sw, err = newGateway("fwd"); err != nil {
		return nil, err
	}
	if err = w.sw.install(w.fwd.rules, false); err != nil {
		return nil, err
	}
	if w.sigBase, err = signatureOf(w.fleetIn.base); err != nil {
		return nil, err
	}
	if w.sigChrn, err = signatureOf(w.fleetIn.churned); err != nil {
		return nil, err
	}
	if w.sigModel, err = signatureOf(w.model.ruleSet()); err != nil {
		return nil, err
	}
	if traced {
		w.tr = newTracer("bench", 1<<16)
	}
	if w.react, err = newFleet("react", w.model, w.fleetIn.base, true, false, w.tr); err != nil {
		return nil, err
	}
	if w.reprog, err = newFleet("reprog", w.model, w.fleetIn.base, false, true, nil); err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

// inputsSHA256 identifies everything generated from the seed.
func (w *world) inputsSHA256() string {
	d := newInputsDigest()
	d.bytes([]byte(datasetFingerprint(w.trainSet)))
	d.bytes([]byte(datasetFingerprint(w.testSet)))
	d.rows(fwdKeyOffsets, w.fwd.rows)
	d.frames(w.fwd.flows)
	for _, f := range w.fwd.seq {
		d.bytes(extractKey(f, fwdKeyOffsets))
	}
	d.rows(w.model.offsets(), w.fleetIn.baseRows)
	d.rows(w.model.offsets(), w.fleetIn.churnedRows)
	d.frames(w.fleetIn.attacks)
	d.floats(w.fleetIn.pauses)
	return d.sum()
}
