package autoenc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"p4guard/internal/nn"
)

// autoencSnap is the on-disk form of a trained autoencoder.
type autoencSnap struct {
	Width int
	Net   []byte
}

// Save writes the trained autoencoder to w.
func Save(w io.Writer, a *Autoencoder) error {
	if a == nil || a.net == nil {
		return fmt.Errorf("autoenc: cannot save untrained autoencoder")
	}
	var netBuf bytes.Buffer
	if err := nn.Save(&netBuf, a.net); err != nil {
		return err
	}
	snap := autoencSnap{Width: a.width, Net: netBuf.Bytes()}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("autoenc: encode: %w", err)
	}
	return nil
}

// Load reads an autoencoder saved by Save.
func Load(r io.Reader) (*Autoencoder, error) {
	var snap autoencSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("autoenc: decode: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	return &Autoencoder{net: net, width: snap.Width}, nil
}
