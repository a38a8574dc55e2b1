package match

import (
	"math/rand"
	"testing"
)

func TestBitsOfRange(t *testing.T) {
	cases := []struct {
		lo, hi      byte
		value, mask byte
	}{
		{0, 255, 0, 0},  // full wildcard
		{7, 7, 7, 0xff}, // point range is exact
		{0x80, 0xff, 0x80, 0x80},
		{0x10, 0x1f, 0x10, 0xf0},
		{0x10, 0x17, 0x10, 0xf8},
		{0, 1, 0, 0xfe},
		{0xfe, 0xff, 0xfe, 0xfe},
	}
	for _, c := range cases {
		v, m := BitsOfRange(c.lo, c.hi)
		if v != c.value || m != c.mask {
			t.Errorf("BitsOfRange(%#02x, %#02x) = (%#02x, %#02x), want (%#02x, %#02x)",
				c.lo, c.hi, v, m, c.value, c.mask)
		}
	}
	// Property: the fixed bits really are fixed across the range, and
	// every in-range byte agrees with value on the mask bits.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		lo, hi := byte(rng.Intn(256)), byte(rng.Intn(256))
		if lo > hi {
			lo, hi = hi, lo
		}
		v, m := BitsOfRange(lo, hi)
		for b := int(lo); b <= int(hi); b++ {
			if byte(b)&m != v {
				t.Fatalf("[%#02x,%#02x]: in-range byte %#02x disagrees with value %#02x mask %#02x",
					lo, hi, b, v, m)
			}
		}
	}
}
