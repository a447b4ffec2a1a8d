package mcfi

import (
	"runtime"
	"testing"

	"mcfi/internal/lazymem"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/workload"
)

// TestInstantiateAllocation gates the Go-heap cost of mrt.New. The
// sandbox (64 MiB of guest memory) and the 4 MiB Tary table are lazily
// zeroed mappings, so instantiating an instrumented program allocates
// only its bookkeeping: page tables, the Bary table, the first policy
// publication. Eagerly zeroed, the same call allocates ~72 MB.
func TestInstantiateAllocation(t *testing.T) {
	if !lazymem.Lazy {
		t.Skip("this build backs sandboxes with the Go heap (race detector or non-unix)")
	}
	const calls = 10
	const limit = 4 << 20
	for _, name := range []string{"perlbench", "gcc", "lbm"} {
		w, _ := workload.ByName(name)
		img, err := toolchain.New(
			toolchain.WithProfile(visa.Profile64),
			toolchain.WithInstrumentation(),
		).Build(w.TestSource())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			rt, err := mrt.New(img, mrt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rt.Release()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: mrt.New allocates %.2f MB of Go heap per call", name, float64(per)/1e6)
		if per > limit {
			t.Errorf("%s: mrt.New allocates %d bytes per call, limit %d", name, per, limit)
		}
	}
}
