package telemetry

// Ring keeps the last Cap values put into it, overwriting the oldest once
// full. It holds no lock: its owner serializes access. The journal's
// memory tail and the dtrace span ring are both one.
type Ring[T any] struct {
	buf   []T
	total uint64 // values ever put; the next goes to slot total%cap
}

// NewRing builds a ring of the given capacity (1024 when capacity <= 0).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		capacity = 1024
	}
	return Ring[T]{buf: make([]T, capacity)}
}

// Put appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Put(v T) {
	r.buf[r.total%uint64(len(r.buf))] = v
	r.total++
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Total returns the number of values ever put, overwritten ones included.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many values have been overwritten.
func (r *Ring[T]) Dropped() uint64 {
	if n := uint64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}

// Values returns a copy of the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	n := r.total - r.Dropped()
	out := make([]T, 0, n)
	for seq := r.total - n; seq < r.total; seq++ {
		out = append(out, r.buf[seq%uint64(len(r.buf))])
	}
	return out
}
