//go:build !race

package securekeeper_test

const raceEnabled = false
