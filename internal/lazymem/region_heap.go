//go:build !unix || race

package lazymem

// Lazy reports whether New returns lazily zeroed mappings.
const Lazy = false

// New returns an n-byte zeroed region on the Go heap. This build has
// no anonymous mappings to offer (non-unix), or must keep the memory
// visible to the race detector (-race), so the zeroing is eager. Go
// aligns a byte slice whose length is a multiple of 4 to at least 4
// bytes, which is all Uint32s needs.
func New(n int) *Region {
	if n <= 0 {
		return &Region{}
	}
	return &Region{b: make([]byte, n)}
}

// unmap is never reached: heap regions are not mapped.
func unmap(*Region, []byte) {}
