//go:build race

package zab

// raceEnabled: the race detector slows the simulator about tenfold, so
// the default sweep runs fewer seeds under it.
const raceEnabled = true
