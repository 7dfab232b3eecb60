//go:build !race

package testutil

// Race reports whether the race detector is on (see race.go).
const Race = false
