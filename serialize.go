package p4guard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"p4guard/internal/autoenc"
	"p4guard/internal/dtree"
	"p4guard/internal/nn"
	"p4guard/internal/packet"
)

// pipelineSnap is the on-disk form of a trained pipeline. Auto (the
// drift-residual autoencoder) is optional in both directions: gob skips
// absent fields, so old files load with a nil residual model and new
// files load under old readers.
type pipelineSnap struct {
	Offsets    []int
	Link       int
	ClassNames []string
	Net        []byte
	Tree       []byte
	Auto       []byte
}

// Save writes the trained pipeline (field selection, MLP, tree) to w. The
// rule set is recompiled at load time, which keeps the format small and
// guarantees rules always match the stored tree.
func (p *Pipeline) Save(w io.Writer) error {
	if p.net == nil || p.tree == nil {
		return fmt.Errorf("p4guard: cannot save untrained pipeline")
	}
	var netBuf, treeBuf, autoBuf bytes.Buffer
	if err := nn.Save(&netBuf, p.net); err != nil {
		return err
	}
	if err := p.tree.Save(&treeBuf); err != nil {
		return err
	}
	if p.auto != nil {
		if err := autoenc.Save(&autoBuf, p.auto); err != nil {
			return err
		}
	}
	snap := pipelineSnap{
		Offsets:    p.Offsets,
		Link:       int(p.Link),
		ClassNames: p.ClassNames,
		Net:        netBuf.Bytes(),
		Tree:       treeBuf.Bytes(),
		Auto:       autoBuf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("p4guard: encode pipeline: %w", err)
	}
	return nil
}

// LoadPipeline reads a pipeline saved by Save and recompiles its rule set.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	var snap pipelineSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("p4guard: decode pipeline: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	// The MLP reads the key's bits: a net of another width would fail
	// every slow-path Predict, which the teacher reads as class 0.
	in := 0
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			in = d.W.Rows
			break
		}
	}
	if in != 8*len(snap.Offsets) {
		return nil, fmt.Errorf("p4guard: the MLP takes %d input bits, but %d key bytes give %d", in, len(snap.Offsets), 8*len(snap.Offsets))
	}
	tree, err := dtree.Load(bytes.NewReader(snap.Tree))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		Offsets:    snap.Offsets,
		Link:       packet.LinkType(snap.Link),
		ClassNames: snap.ClassNames,
		net:        net,
		tree:       tree,
	}
	if len(snap.Auto) > 0 {
		auto, err := autoenc.Load(bytes.NewReader(snap.Auto))
		if err != nil {
			return nil, err
		}
		p.auto = auto
	}
	rs, err := tree.CompileRuleSet(snap.Offsets, 0)
	if err != nil {
		return nil, err
	}
	rs.SetLink(p.Link)
	if err := p.setRuleSet(rs); err != nil {
		return nil, err
	}
	return p, nil
}
