// Package lazymem allocates the large zero-initialised regions behind a
// sandbox: guest memory (vm.Process.Mem) and the Tary table
// (tables.Tables). On real hardware such a region is reserved address
// space that the kernel zeroes one page at a time, on first touch; a
// guest that touches a few hundred KiB of its 64 MiB sandbox pays for
// those pages only.
//
// On unix builds without the race detector a Region is an anonymous
// private mapping (region_mmap.go). Everywhere else — non-unix
// platforms, and -race builds, where the detector does not track memory
// outside the Go heap — it is an ordinary zeroed Go slice
// (region_heap.go). Both satisfy the same contract: Bytes starts out
// all zeros, stays valid until Free, and is nil afterwards.
package lazymem

import "unsafe"

// Region is one zero-initialised allocation. Its owner frees it
// explicitly with Free; a mapped region that becomes unreachable first
// is unmapped by a finalizer, the safety net for owners that never
// release.
type Region struct {
	b      []byte
	mapped bool
}

// Bytes returns the region's memory (nil after Free).
func (r *Region) Bytes() []byte { return r.b }

// Uint32s views the region as 32-bit words (len(Bytes())/4 of them).
// Both allocators return memory aligned for atomic 32-bit access.
func (r *Region) Uint32s() []uint32 {
	if len(r.b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(r.b))), len(r.b)/4)
}

// Free releases the region's memory. It is idempotent. The caller must
// guarantee that nothing uses a slice obtained from Bytes or Uint32s
// any more: for a mapped region those slices fault once it is gone.
func (r *Region) Free() {
	if r.b == nil {
		return
	}
	b := r.b
	r.b = nil
	if r.mapped {
		unmap(r, b)
	}
}
