//go:build !amd64

package main

import "runtime"

// curg returns the calling goroutine's id, parsed from the header line of
// runtime.Stack. It is far slower than the amd64 assembly version (tens of
// microseconds), which only inflates trace_overhead_frac on other
// architectures.
func curg() uintptr {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
