//go:build !race

package sweep

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
