//go:build race

package testutil

// Race reports whether the race detector is on. Under it sync.Pool drops a
// quarter of its puts at random, so a pooled buffer is reallocated now and
// then and a byte count per call says nothing about steady state.
const Race = true
