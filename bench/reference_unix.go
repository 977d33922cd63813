//go:build unix

package main

import "syscall"

// allocRing maps n anonymous bytes outside the Go heap.
func allocRing(n int) ([]byte, func()) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), func() {}
	}
	return b, func() { syscall.Munmap(b) } //nolint:errcheck // the process is about to exit
}
