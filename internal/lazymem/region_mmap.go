//go:build unix && !race

package lazymem

import (
	"runtime"
	"syscall"
)

// Lazy reports whether New returns lazily zeroed mappings.
const Lazy = true

// New returns an n-byte region backed by an anonymous private mapping,
// so the kernel zeroes each page when it is first touched. If the
// mapping cannot be made (address-space limits), it falls back to a
// heap slice, which behaves the same apart from eager zeroing.
func New(n int) *Region {
	if n <= 0 {
		return &Region{}
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return &Region{b: make([]byte, n)}
	}
	r := &Region{b: b, mapped: true}
	runtime.SetFinalizer(r, (*Region).Free)
	return r
}

// unmap returns a mapped region's pages to the kernel.
func unmap(r *Region, b []byte) {
	runtime.SetFinalizer(r, nil)
	if err := syscall.Munmap(b); err != nil {
		panic("lazymem: munmap: " + err.Error())
	}
}
