package match

// Explain support shared with the data plane's table explanation
// (p4.Table.Explain): the ternary view of a range byte and the bound on the
// losing rows an explanation lists.

// BitsOfRange returns the ternary (value, mask) view of an inclusive
// byte range [lo, hi]: mask has a bit set for every bit position fixed
// across the whole range (the longest shared prefix), and value carries
// those fixed bits. A full range [0,255] yields mask 0 (fully wildcard);
// a point range lo==hi yields mask 0xff (fully exact). This is the
// granularity the TCAM expansion and the Stage-1 bit-level features
// share.
func BitsOfRange(lo, hi byte) (value, mask byte) {
	// Bits agree from the MSB down until the first position where lo and
	// hi differ; below that the range spans both values of every bit.
	diff := lo ^ hi
	mask = 0xff
	for diff != 0 {
		diff >>= 1
		mask <<= 1
	}
	return lo & mask, mask
}

// MaxBeaten caps how many losing higher-priority rows an explanation
// carries, keeping explain records bounded on tables with thousands of
// rows.
const MaxBeaten = 8
