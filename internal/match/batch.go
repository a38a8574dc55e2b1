package match

import (
	"encoding/binary"
	"math/bits"
)

// Batched classification: the zero-copy fast path gathers one match key
// per packet into a struct-of-arrays KeyBatch (one flat byte buffer, no
// per-key slice headers) and classifies the whole burst per call. The
// byte-wise inner loops of the single-key path are replaced with 64-bit
// lane operations: keys, values, and masks are compared eight bytes at a
// time through unaligned little-endian loads, which compile to single
// word moves on little-endian targets.

// KeyBatch is a struct-of-arrays buffer of n fixed-width match keys.
// Key i occupies keys[i*width : (i+1)*width]. Reset reuses the backing
// array across batches, so a workspace-owned KeyBatch is allocation-free
// in steady state.
type KeyBatch struct {
	width int
	n     int
	keys  []byte
}

// Reset resizes the batch to n keys of the given width, reusing the
// backing buffer when it is large enough. Key bytes are NOT cleared; the
// caller overwrites every key it classifies.
func (kb *KeyBatch) Reset(width, n int) {
	kb.width, kb.n = width, n
	need := width * n
	if cap(kb.keys) < need {
		kb.keys = make([]byte, need)
	}
	kb.keys = kb.keys[:need]
}

// Len returns the number of keys in the batch.
func (kb *KeyBatch) Len() int { return kb.n }

// Width returns the key width in bytes.
func (kb *KeyBatch) Width() int { return kb.width }

// Key returns key i as a full-capacity-bounded subslice, so appends by a
// careless caller can never bleed into the next key.
func (kb *KeyBatch) Key(i int) []byte {
	lo := i * kb.width
	return kb.keys[lo : lo+kb.width : lo+kb.width]
}

// MaskBytes writes dst[i] = key[i] & mask[i], eight bytes per step.
// dst, key, and mask must all have length n (dst may alias key).
func MaskBytes(dst, key, mask []byte) {
	n := len(key)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(key[i:])&binary.LittleEndian.Uint64(mask[i:]))
	}
	for ; i < n; i++ {
		dst[i] = key[i] & mask[i]
	}
}

// MaskedEqual reports (key ^ value) & mask == 0, eight bytes per step —
// the ternary match predicate done in 64-bit lanes. key, value, and
// mask must share a length.
func MaskedEqual(key, value, mask []byte) bool {
	n := len(key)
	i := 0
	for ; i+8 <= n; i += 8 {
		if (binary.LittleEndian.Uint64(key[i:])^binary.LittleEndian.Uint64(value[i:]))&
			binary.LittleEndian.Uint64(mask[i:]) != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		if (key[i]^value[i])&mask[i] != 0 {
			return false
		}
	}
	return true
}

// FindBatchIdx resolves kb keys selected by idxs (key index idxs[j]),
// writing the first matching row's id or -1 into rows[j], exactly as Find
// would. rows must have len(idxs) entries. The fast path uses it to
// resolve only the packets its flow cache missed.
func (ix *KeyIndex) FindBatchIdx(kb *KeyBatch, idxs []int32, rows []int32) {
	if ix == nil || kb.width != ix.width {
		for j := range idxs {
			rows[j] = -1
		}
		return
	}
	if ix.slots == nil && ix.nWords == 1 {
		// One-word fast loop: up to 64 rules and no point rows, the
		// common learned-table shape — no inner word loop, one
		// accumulator register.
		seed := ix.rowMask[0]
		for j, idx := range idxs {
			rows[j] = ix.findOneWord(kb.Key(int(idx)), seed)
		}
		return
	}
	for j, idx := range idxs {
		rows[j] = ix.find(kb.Key(int(idx)))
	}
}

// findOneWord is Find specialized to indexes with at most 64 rows.
func (ix *KeyIndex) findOneWord(key []byte, seed uint64) int32 {
	acc := seed
	for pos := 0; pos < ix.width && acc != 0; pos++ {
		acc &= ix.table[(pos*256)+int(key[pos])]
	}
	if acc == 0 {
		return -1
	}
	return int32(bits.TrailingZeros64(acc))
}
