//go:build !race

package p4rt

const raceEnabled = false
