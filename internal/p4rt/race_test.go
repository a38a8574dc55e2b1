//go:build race

package p4rt

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is Put on purpose and a recycled frame cannot be counted on.
const raceEnabled = true
