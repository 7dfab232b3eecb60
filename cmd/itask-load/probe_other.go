//go:build !linux

package main

import "errors"

// Without Linux's scheduling classes and thread clocks there is no host
// probe: the child reports an error, and every figure stays as measured.
func allowedCPUs() ([]int, error) { return nil, errors.New("the host probe needs Linux") }
func pinIdle(int) error           { return errors.New("the host probe needs Linux") }
func threadCPUNanos() int64       { return 0 }
