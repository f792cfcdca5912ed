//go:build race

package netsim

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
