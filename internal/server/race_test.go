//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation counts of code that pools its buffers mean nothing.
const raceEnabled = true
