//go:build !race

package zabnet

const raceEnabled = false
