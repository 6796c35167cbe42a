//go:build race

package busnet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
