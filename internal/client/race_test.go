//go:build race

package client

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation counts of code that pools its futures mean nothing.
const raceEnabled = true
