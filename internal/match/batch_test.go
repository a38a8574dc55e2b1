package match

import (
	"bytes"
	"math/rand"
	"testing"
)

// randRows draws n packed rows, lo‖hi each, as CompileRanges reads them.
func randRows(rng *rand.Rand, width, n int) []byte {
	keys := make([]byte, 2*width*n)
	for r := 0; r < n; r++ {
		lo, hi := keys[2*width*r:][:width], keys[2*width*r+width:][:width]
		for p := 0; p < width; p++ {
			a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
			if a > b && rng.Intn(8) != 0 { // keep some dead rows
				a, b = b, a
			}
			// Widen most positions so matches actually happen.
			if rng.Intn(2) == 0 {
				a, b = 0, 255
			}
			lo[p], hi[p] = a, b
		}
	}
	return keys
}

// TestFindBatchIdxMatchesFind pins the batched resolver to the single-key
// reference on random keys, covering the one-word fast loop (≤64 rows),
// the general multi-word loop (>64 rows), sparse index lists, and a
// width-mismatched batch.
func TestFindBatchIdxMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ width, rows, keys int }{
		{1, 3, 64}, {4, 20, 256}, {4, 64, 256}, {5, 100, 256}, {8, 200, 512},
	} {
		ix, err := CompileRanges(cfg.width, cfg.rows, randRows(rng, cfg.width, cfg.rows))
		if err != nil {
			t.Fatal(err)
		}
		var kb KeyBatch
		kb.Reset(cfg.width, cfg.keys)
		all := make([]int32, cfg.keys)
		for i := range all {
			rng.Read(kb.Key(i))
			all[i] = int32(i)
		}
		for _, idxs := range [][]int32{all, {0, int32(cfg.keys / 2), int32(cfg.keys - 1)}} {
			rows := make([]int32, len(idxs))
			ix.FindBatchIdx(&kb, idxs, rows)
			for j, idx := range idxs {
				want, ok := ix.Find(kb.Key(int(idx)))
				if !ok {
					want = -1
				}
				if int(rows[j]) != want {
					t.Fatalf("cfg %+v key %d: FindBatchIdx=%d Find=%d", cfg, idx, rows[j], want)
				}
			}
		}
		kb.Reset(cfg.width+1, 2)
		rows := []int32{9, 9}
		ix.FindBatchIdx(&kb, []int32{0, 1}, rows)
		if rows[0] != -1 || rows[1] != -1 {
			t.Fatalf("cfg %+v: width-mismatched batch resolved to rows %v", cfg, rows)
		}
	}
}

func TestKeyBatchReuseAndIsolation(t *testing.T) {
	var kb KeyBatch
	kb.Reset(4, 3)
	base := &kb.keys[0]
	copy(kb.Key(0), []byte{1, 2, 3, 4})
	copy(kb.Key(2), []byte{9, 9, 9, 9})
	// Key slices are capacity-bounded: appending cannot bleed into key 1.
	k0 := kb.Key(0)
	_ = append(k0, 0xee)
	if kb.Key(1)[0] == 0xee {
		t.Fatal("append through Key(0) overwrote Key(1)")
	}
	kb.Reset(4, 2)
	if &kb.keys[0] != base {
		t.Fatal("Reset to a smaller batch reallocated the buffer")
	}
	if got := kb.n; got != 2 {
		t.Fatalf("Len = %d", got)
	}
}

func TestMaskOpsMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 7, 8, 9, 15, 16, 17, 33, 64} {
		key := make([]byte, n)
		val := make([]byte, n)
		mask := make([]byte, n)
		dst := make([]byte, n)
		want := make([]byte, n)
		for trial := 0; trial < 50; trial++ {
			rng.Read(key)
			rng.Read(val)
			rng.Read(mask)
			MaskBytes(dst, key, mask)
			wantEq := true
			for i := range key {
				want[i] = key[i] & mask[i]
				if (key[i]^val[i])&mask[i] != 0 {
					wantEq = false
				}
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d MaskBytes=%x want %x", n, dst, want)
			}
			if got := MaskedEqual(key, val, mask); got != wantEq {
				t.Fatalf("n=%d MaskedEqual=%v want %v", n, got, wantEq)
			}
			// The equal case must also be detected.
			MaskBytes(dst, key, mask)
			masked := make([]byte, n)
			MaskBytes(masked, key, mask)
			vv := make([]byte, n)
			copy(vv, masked)
			if !MaskedEqual(key, vv, mask) {
				t.Fatalf("n=%d MaskedEqual false for constructed equal value", n)
			}
		}
	}
}
