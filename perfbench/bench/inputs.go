package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"
)

// Params fixes a workload's input shape. Everything random about a run
// is drawn from the seed; everything here is the same on every seed.
type Params struct {
	Name string
	Why  string

	// Scenario and TracePackets select the labelled trace the pipeline
	// is trained on; the held-out trace has the same shape, seed+1.
	Scenario     string
	TracePackets int

	// Forwarding phase: Flows distinct flow keys over a TableRows-row
	// range detector, MissShare of the flows matching no row, frame
	// sizes drawn by weight.
	Flows        int
	TableRows    int
	MissShare    float64
	FrameSizes   []int
	FrameWeights []int

	// Control phases: rule sets of FleetRows rows over the trained
	// model's key layout, ChurnRows of them replaced in the delta set.
	FleetRows int
	ChurnRows int
	// StormMisses is the size of the per-layer digest storm.
	StormMisses int

	scale
}

// scale holds the sizes that are the same on every workload; the
// harness's own tests shrink them.
type scale struct {
	setupRepeats int    // times set-up is executed and timed; the last one is kept
	roundPackets int    // frames in one forwarding round
	attackKeys   int    // distinct slow-path-positive keys the react phase draws from, one per sample
	ternaryRows  [2]int // sizes of the standalone ternary probes
}

var fullScale = scale{setupRepeats: 3, roundPackets: 65536, attackKeys: 4096, ternaryRows: [2]int{1000, 100000}}

const (
	burstSize     = 256
	learnedRows   = 16
	pumpTickMs    = 10.0
	minDetectF1   = 0.5
	reactTimeout  = time.Second // how long a miss may wait for its install
	digestDrain   = 256         // what the p4rt pump drains per tick
	reactPriority = 1 << 20
)

// Workloads are the two operating points of one gateway deployment. Each
// run drives the system through its whole life cycle — train, deploy,
// forward, react, reprogram — so every end-to-end metric has a value on
// both; the workloads differ in how large every input is.
var Workloads = []Params{
	{
		Name:     "hot",
		Why:      "learned operating point: 256 flows fit the flow cache, 16-row tables, 64 B frames, no misses; parse, key gather and cache probe do the work",
		Scenario: "wifi-coap", TracePackets: 1500,
		Flows: 256, TableRows: learnedRows, MissShare: 0,
		FrameSizes: []int{64}, FrameWeights: []int{1},
		FleetRows: learnedRows, ChurnRows: 1, StormMisses: 8000,
		scale: fullScale,
	},
	{
		Name:     "cold",
		Why:      "gateway under attack: 65536 flows thrash the cache, 8192-row tables, mixed frame sizes, 2% misses; index lookup, digest queue and table rebuilds do the work",
		Scenario: "wifi-mqtt", TracePackets: 3000,
		Flows: 65536, TableRows: 8192, MissShare: 0.02,
		FrameSizes: []int{64, 512, 1500}, FrameWeights: []int{7, 4, 1},
		FleetRows: 8192, ChurnRows: 82, StormMisses: 3000,
		scale: fullScale,
	},
}

// WorkloadByName finds a declared workload.
func WorkloadByName(name string) (Params, bool) {
	for _, p := range Workloads {
		if p.Name == name {
			return p, true
		}
	}
	return Params{}, false
}

// fwdKeyOffsets is the forwarding detector's key: IPv4 source address and
// UDP source port of an Ethernet frame, so every flow has its own key.
var fwdKeyOffsets = []int{26, 27, 28, 29, 34, 35}

const keyWidth = 6

// genRows draws a detector program shaped like what a gateway holds:
// learnedRows range rows as a distilled tree emits them (each owns a
// slice of the first key byte and bounds two more bytes), then point rows
// as reactive installs leave them, at reactive priority. Learned rows
// never overlap each other; a point row inside one outranks it.
func genRows(rng *rand.Rand, n int) []row {
	rows := make([]row, 0, n)
	step := 240 / learnedRows
	for i := 0; i < learnedRows && i < n; i++ {
		rows = append(rows, learnedRow(rng, i, step))
	}
	seen := map[string]bool{}
	for len(rows) < n {
		k := make([]byte, keyWidth)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		rows = append(rows, row{prio: reactPriority, class: 1, lo: k, hi: k})
	}
	return rows
}

func learnedRow(rng *rand.Rand, i, step int) row {
	lo := make([]byte, keyWidth)
	hi := make([]byte, keyWidth)
	for j := range hi {
		hi[j] = 255
	}
	lo[0], hi[0] = byte(i*step), byte(i*step+step-1)
	for _, j := range rng.Perm(keyWidth - 1)[:2] {
		l := rng.Intn(64)
		lo[j+1], hi[j+1] = byte(l), byte(l+128+rng.Intn(64))
	}
	return row{prio: learnedRows - i, class: i % 2, lo: lo, hi: hi}
}

// churnRows returns a copy of rows with the last n regenerated: the
// delta set is the base set with n rows replaced.
func churnRows(rng *rand.Rand, rows []row, n int) []row {
	out := append([]row(nil), rows...)
	step := 240 / learnedRows
	for c := 0; c < n; c++ {
		i := len(out) - 1 - c
		if i < learnedRows {
			out[i] = learnedRow(rng, i, step)
			continue
		}
		k := make([]byte, keyWidth)
		rng.Read(k)
		out[i] = row{prio: reactPriority, class: 1, lo: k, hi: k}
	}
	return out
}

// rowSet is the harness's own first-match lookup over generated rows:
// point rows by map (they outrank every range row), range rows by scan.
// It is how the harness knows what each generated key must do without
// asking the program.
type rowSet struct {
	ranges []row
	points map[string]row
}

func newRowSet(rows []row) rowSet {
	rs := rowSet{points: map[string]row{}}
	for _, r := range rows {
		if string(r.lo) == string(r.hi) {
			rs.points[string(r.lo)] = r
		} else {
			rs.ranges = append(rs.ranges, r)
		}
	}
	return rs
}

func (rs rowSet) find(key []byte) (row, bool) {
	if r, ok := rs.points[string(key)]; ok {
		return r, true
	}
	for _, r := range rs.ranges {
		if r.contains(key) {
			return r, true
		}
	}
	return row{}, false
}

func (rs rowSet) matches(key []byte) bool {
	_, ok := rs.find(key)
	return ok
}

func (r row) contains(key []byte) bool {
	for i, b := range key {
		if b < r.lo[i] || b > r.hi[i] {
			return false
		}
	}
	return true
}

// keyInside draws a key the row matches.
func keyInside(rng *rand.Rand, r row) []byte {
	k := make([]byte, keyWidth)
	for i := range k {
		k[i] = r.lo[i] + byte(rng.Intn(int(r.hi[i])-int(r.lo[i])+1))
	}
	return k
}

// fwdInputs is what the forwarding phase reads.
type fwdInputs struct {
	rules  *RuleSet
	rows   []row
	rowSet rowSet
	flows  []*Packet // distinct flows
	misses int       // flows matching no row
	seq    []*Packet // one round: roundPackets frames in shuffled order
	// seqMisses is how many of seq's frames match no row: the digests one
	// round offers.
	seqMisses int
}

func genFwd(rng *rand.Rand, p Params) (fwdInputs, error) {
	rows := genRows(rng, p.TableRows)
	nMiss := int(math.Round(p.MissShare * float64(p.Flows)))
	nPoint := p.TableRows - learnedRows
	if nMiss+nPoint > p.Flows {
		return fwdInputs{}, fmt.Errorf("bench: %d flows cannot cover %d point rows and %d misses", p.Flows, nPoint, nMiss)
	}
	keys := make([][]byte, 0, p.Flows)
	seen := map[string]bool{}
	add := func(k []byte) bool {
		if seen[string(k)] {
			return false
		}
		seen[string(k)] = true
		keys = append(keys, k)
		return true
	}
	// One flow per point row, so every row of the table carries traffic.
	for _, r := range rows[learnedRows:] {
		add(r.lo)
	}
	// Misses: first key byte past the learned rows' slices, not a point row.
	for n := 0; n < nMiss; {
		k := make([]byte, keyWidth)
		rng.Read(k)
		k[0] = 240 + k[0]%16
		if add(k) {
			n++
		}
	}
	for len(keys) < p.Flows {
		add(keyInside(rng, rows[rng.Intn(learnedRows)]))
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	totalW := 0
	for _, w := range p.FrameWeights {
		totalW += w
	}
	in := fwdInputs{rules: buildRuleSet(fwdKeyOffsets, rows), rows: rows, rowSet: newRowSet(rows), misses: nMiss}
	in.flows = make([]*Packet, len(keys))
	for i, k := range keys {
		pick, size := rng.Intn(totalW), 0
		for j, w := range p.FrameWeights {
			if pick < w {
				size = p.FrameSizes[j]
				break
			}
			pick -= w
		}
		in.flows[i] = udpFrame(rng, [4]byte{k[0], k[1], k[2], k[3]}, uint16(k[4])<<8|uint16(k[5]), size)
	}
	in.seq = make([]*Packet, p.roundPackets)
	for i := range in.seq {
		in.seq[i] = in.flows[i%len(in.flows)]
	}
	rng.Shuffle(len(in.seq), func(i, j int) { in.seq[i], in.seq[j] = in.seq[j], in.seq[i] })
	for _, f := range in.seq {
		if !in.rowSet.matches(extractKey(f, fwdKeyOffsets)) {
			in.seqMisses++
		}
	}
	return in, nil
}

// fleetInputs is what the control phases read: rule sets over the
// trained model's key layout and the frames that miss them.
type fleetInputs struct {
	base, churned         *RuleSet
	baseRows, churnedRows []row
	attacks               []*Packet // distinct keys the slow path calls an attack and base does not match
	pauses                []float64 // de-phasing pause after each react sample, ms
}

// keyFrame builds a 64-byte-or-longer frame carrying key at offsets.
func keyFrame(rng *rand.Rand, offsets []int, key []byte) *Packet {
	n := 64
	for _, off := range offsets {
		if off >= n {
			n = off + 1
		}
	}
	b := make([]byte, n)
	rng.Read(b)
	for i, off := range offsets {
		b[off] = key[i]
	}
	return rawFrame(b)
}

func genFleet(rng *rand.Rand, p Params, m *model, trainSet *Dataset) (fleetInputs, error) {
	offs := m.offsets()
	if len(offs) != keyWidth {
		return fleetInputs{}, fmt.Errorf("bench: model key has %d bytes, want %d", len(offs), keyWidth)
	}
	rows := genRows(rng, p.FleetRows)
	churned := churnRows(rng, rows, p.ChurnRows)
	in := fleetInputs{
		baseRows: rows, churnedRows: churned,
		base: buildRuleSet(offs, rows), churned: buildRuleSet(offs, churned),
	}
	var err error
	if in.attacks, err = genAttacks(rng, p.attackKeys, m, trainSet, newRowSet(rows), nil); err != nil {
		return fleetInputs{}, err
	}
	in.pauses = dephasePauses(rng.Float64(), p.attackKeys)
	return in, nil
}

// genAttacks draws n frames with distinct keys that the model's slow
// path classifies as an attack and no row matches. Candidates are the
// keys of the trace's own attack packets with one byte redrawn, so they
// stay near what the model was trained to flag.
func genAttacks(rng *rand.Rand, n int, m *model, trainSet *Dataset, rows rowSet, skip map[string]bool) ([]*Packet, error) {
	offs := m.offsets()
	var seeds [][]byte
	for _, s := range trainSet.Samples {
		if m.slowPath(s.Pkt) != 0 {
			seeds = append(seeds, extractKey(s.Pkt, offs))
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("bench: slow path flags no packet of the training trace")
	}
	seen := map[string]bool{}
	out := make([]*Packet, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 400*n {
			return nil, fmt.Errorf("bench: found only %d of %d attack keys", len(out), n)
		}
		k := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		k[rng.Intn(keyWidth)] = byte(rng.Intn(256))
		if seen[string(k)] || skip[string(k)] {
			continue
		}
		if rows.matches(k) {
			continue
		}
		f := keyFrame(rng, offs, k)
		if m.slowPath(f) == 0 {
			continue
		}
		seen[string(k)] = true
		out = append(out, f)
	}
	return out, nil
}

// dephasePauses is the pause, in ms, after each confirmed react sample.
// A confirmed hit lands a fixed delay after a pump tick, so without a
// pause every injection would see the same phase of the 10 ms tick. The
// pauses walk [0, 10) by the golden-ratio sequence from a seeded origin:
// uniform like a random draw, but with the even coverage that keeps the
// median of a few hundred samples from wandering with the draw.
func dephasePauses(origin float64, n int) []float64 {
	const phi = 0.6180339887498949
	out := make([]float64, n)
	for i := range out {
		_, f := math.Modf(origin + float64(i)*phi)
		out[i] = f * pumpTickMs
	}
	return out
}

// inputsDigest hashes every generated input, so two runs can be shown
// to have measured the same thing.
type inputsDigest struct{ h hash.Hash }

func newInputsDigest() *inputsDigest { return &inputsDigest{sha256.New()} }

func (d *inputsDigest) bytes(b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *inputsDigest) rows(offsets []int, rows []row) {
	for _, o := range offsets {
		d.bytes([]byte{byte(o)})
	}
	for _, r := range rows {
		d.bytes([]byte{byte(r.prio >> 16), byte(r.prio), byte(r.class)})
		d.bytes(r.lo)
		d.bytes(r.hi)
	}
}

func (d *inputsDigest) frames(fs []*Packet) {
	for _, f := range fs {
		d.bytes(f.Bytes)
	}
}

func (d *inputsDigest) floats(xs []float64) {
	for _, x := range xs {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], math.Float64bits(x))
		d.h.Write(n[:])
	}
}

func (d *inputsDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
