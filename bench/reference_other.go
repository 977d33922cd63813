//go:build !unix

package main

// allocRing falls back to the Go heap where anonymous mappings are not
// available through package syscall.
func allocRing(n int) ([]byte, func()) { return make([]byte, n), func() {} }
