//go:build !race

package switchsim

const raceEnabled = false
