// Package trace represents labelled packet datasets: the unit of data the
// two-stage pipeline trains and evaluates on.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"p4guard/internal/packet"
	"p4guard/internal/tensor"
)

// Label is a class index. LabelBenign (0) is always the benign class;
// positive values are attack classes. Binary experiments collapse every
// positive label to LabelAttack.
type Label int

// Canonical binary labels.
const (
	LabelBenign Label = 0
	LabelAttack Label = 1
)

// Sample is one labelled packet.
type Sample struct {
	Pkt    *packet.Packet
	Label  Label
	Attack string // attack kind, empty for benign traffic
}

// Dataset is a named, link-homogeneous labelled trace.
type Dataset struct {
	Name    string
	Link    packet.LinkType
	Samples []Sample
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Append adds a sample, enforcing link homogeneity.
func (d *Dataset) Append(s Sample) error {
	if s.Pkt == nil {
		return fmt.Errorf("trace: nil packet")
	}
	if d.Link == 0 {
		d.Link = s.Pkt.Link
	}
	if s.Pkt.Link != d.Link {
		return fmt.Errorf("trace: packet link %v != dataset link %v", s.Pkt.Link, d.Link)
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// Split partitions the dataset into train and test subsets, with trainFrac
// of samples (rounded down) in the train half, in order.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("trace: trainFrac %v out of (0,1)", trainFrac)
	}
	n := int(float64(len(d.Samples)) * trainFrac)
	train = &Dataset{Name: d.Name + "/train", Link: d.Link, Samples: d.Samples[:n]}
	test = &Dataset{Name: d.Name + "/test", Link: d.Link, Samples: d.Samples[n:]}
	return train, test, nil
}

// Fingerprint returns a content hash of the dataset: link type, sample
// order, and every sample's frame bytes, label, and attack kind. Two
// datasets with the same fingerprint train identical models under the
// same seed, so the run journal records it to make training runs
// auditable — a replay can prove it saw the same data. The name is
// deliberately excluded (splits rename subsets without changing
// content).
func (d *Dataset) Fingerprint() string {
	h := sha256.New()
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(d.Link))
	h.Write(scratch[:])
	for _, s := range d.Samples {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s.Pkt.Bytes)))
		h.Write(scratch[:])
		h.Write(s.Pkt.Bytes)
		binary.LittleEndian.PutUint64(scratch[:], uint64(s.Label))
		h.Write(scratch[:])
		h.Write([]byte(s.Attack))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ClassCounts returns per-label sample counts.
func (d *Dataset) ClassCounts() map[Label]int {
	counts := make(map[Label]int)
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}

// AttackKinds returns the distinct attack names present, sorted.
func (d *Dataset) AttackKinds() []string {
	seen := make(map[string]bool)
	for _, s := range d.Samples {
		if s.Attack != "" {
			seen[s.Attack] = true
		}
	}
	kinds := make([]string, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// BinaryLabels returns the labels collapsed to benign/attack as ints
// suitable for one-hot encoding.
func (d *Dataset) BinaryLabels() []int {
	ys := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		if s.Label != LabelBenign {
			ys[i] = 1
		}
	}
	return ys
}

// MultiLabels returns per-sample class indices for attack-kind
// identification: 0 is benign and index i+1 is kinds[i], where kinds are
// the dataset's attack kinds sorted. Unlabelled attacks (empty kind, but
// non-benign label) map to the last class, "attack-other".
func (d *Dataset) MultiLabels() (ys []int, kinds []string) {
	kinds = d.AttackKinds()
	index := make(map[string]int, len(kinds))
	for i, k := range kinds {
		index[k] = i + 1
	}
	other := -1
	ys = make([]int, len(d.Samples))
	for i, s := range d.Samples {
		if s.Label == LabelBenign {
			continue
		}
		if ci, ok := index[s.Attack]; ok {
			ys[i] = ci
			continue
		}
		if other < 0 {
			kinds = append(kinds, "attack-other")
			other = len(kinds)
		}
		ys[i] = other
	}
	return ys, kinds
}

// HeaderMatrix returns the normalized HeaderWindow-byte feature matrix of
// every sample.
func (d *Dataset) HeaderMatrix() *tensor.Matrix {
	m := tensor.New(len(d.Samples), packet.HeaderWindow)
	for i, s := range d.Samples {
		m.SetRow(i, s.Pkt.HeaderVector())
	}
	return m
}

// HeaderBitMatrix returns the per-sample bit-expanded header features
// (HeaderWindow×8 columns, MSB first).
func (d *Dataset) HeaderBitMatrix() *tensor.Matrix {
	m := tensor.New(len(d.Samples), packet.HeaderWindow*8)
	for i, s := range d.Samples {
		m.SetRow(i, s.Pkt.HeaderBitsVector())
	}
	return m
}

// SelectColumnsBits returns the bit-expanded features of the bytes at the
// given offsets (8 columns per offset, MSB first).
func (d *Dataset) SelectColumnsBits(offsets []int) (*tensor.Matrix, error) {
	for _, off := range offsets {
		if off < 0 || off >= packet.HeaderWindow {
			return nil, fmt.Errorf("trace: offset %d out of header window [0,%d)", off, packet.HeaderWindow)
		}
	}
	m := tensor.New(len(d.Samples), len(offsets)*8)
	for i, s := range d.Samples {
		row := m.Row(i)
		for j, off := range offsets {
			b := s.Pkt.ByteAt(off)
			for bit := 0; bit < 8; bit++ {
				if b&(0x80>>bit) != 0 {
					row[j*8+bit] = 1
				}
			}
		}
	}
	return m, nil
}

// SelectColumns returns the feature matrix restricted to the given byte
// offsets (normalized values).
func (d *Dataset) SelectColumns(offsets []int) (*tensor.Matrix, error) {
	for _, off := range offsets {
		if off < 0 || off >= packet.HeaderWindow {
			return nil, fmt.Errorf("trace: offset %d out of header window [0,%d)", off, packet.HeaderWindow)
		}
	}
	m := tensor.New(len(d.Samples), len(offsets))
	for i, s := range d.Samples {
		row := m.Row(i)
		for j, off := range offsets {
			row[j] = float64(s.Pkt.ByteAt(off)) / 255
		}
	}
	return m, nil
}

// Merge concatenates datasets that share a link type.
func Merge(name string, parts ...*Dataset) (*Dataset, error) {
	out := &Dataset{Name: name}
	for _, p := range parts {
		for _, s := range p.Samples {
			if err := out.Append(s); err != nil {
				return nil, fmt.Errorf("trace: merge %s: %w", p.Name, err)
			}
		}
	}
	return out, nil
}

// SortByTime orders samples by packet timestamp (stable).
func (d *Dataset) SortByTime() {
	sort.SliceStable(d.Samples, func(i, j int) bool {
		return d.Samples[i].Pkt.Time < d.Samples[j].Pkt.Time
	})
}
