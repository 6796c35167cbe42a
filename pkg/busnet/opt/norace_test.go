//go:build !race

package opt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
