//go:build race

package switchsim

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is Put on purpose and a pooled path cannot be held to 0 allocs.
const raceEnabled = true
