// Package m is the module's root package: its exported API is a root.
package m

import "example.com/m/lib"

// API is exported, so what it calls is live.
func API() int { return lib.ForAPI() }

func unexported() {}
