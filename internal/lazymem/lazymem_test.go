package lazymem

import "testing"

func TestRegionZeroedWritableAndFreed(t *testing.T) {
	const n = 1 << 20
	r := New(n)
	b := r.Bytes()
	if len(b) != n {
		t.Fatalf("len %d, want %d", len(b), n)
	}
	for i := 0; i < n; i += 4093 {
		if b[i] != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b[i])
		}
	}
	w := r.Uint32s()
	if len(w) != n/4 {
		t.Fatalf("%d words, want %d", len(w), n/4)
	}
	w[3] = 0xdeadbeef
	if b[12] != 0xef || b[15] != 0xde {
		t.Fatalf("word view and byte view disagree: % x", b[12:16])
	}
	r.Free()
	r.Free()
	if r.Bytes() != nil || r.Uint32s() != nil {
		t.Fatal("Free left the region readable")
	}
}

func TestEmptyRegion(t *testing.T) {
	r := New(0)
	if r.Bytes() != nil || r.Uint32s() != nil {
		t.Fatal("empty region has memory")
	}
	r.Free()
}
