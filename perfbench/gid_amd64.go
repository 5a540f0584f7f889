package main

// curg returns the address of the calling goroutine's runtime descriptor.
// It is unique among live goroutines, which is all the tracer needs to
// keep one open-span stack per goroutine, and costs a couple of
// nanoseconds.
func curg() uintptr
