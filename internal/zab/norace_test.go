//go:build !race

package zab

const raceEnabled = false
