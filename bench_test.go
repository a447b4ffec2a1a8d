// Package mcfi's benchmark suite: one benchmark family per table and
// figure of the paper's evaluation (§8), plus the ablations called out
// in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use the reduced "test" workload inputs so the whole suite
// completes in minutes; cmd/mcfi-bench runs the reference inputs.
package mcfi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mcfi/internal/cfg"
	"mcfi/internal/id"
	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/rop"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// buildFor compiles and links one workload at test scale.
func buildFor(b *testing.B, name string, instrument bool) *linker.Image {
	b.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	img, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrument(instrument),
	).Build(w.TestSource())
	if err != nil {
		b.Fatal(err)
	}
	return img
}

func runImage(b *testing.B, img *linker.Image, during func(*mrt.Runtime, <-chan struct{})) int64 {
	return runImageOpts(b, img, mrt.Options{}, during)
}

func runImageOpts(b *testing.B, img *linker.Image, opts mrt.Options, during func(*mrt.Runtime, <-chan struct{})) int64 {
	b.Helper()
	rt, err := mrt.New(img, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Release()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during(rt, stop)
		}()
	}
	code, err := rt.Run(0)
	close(stop)
	wg.Wait()
	if err != nil || code != 0 {
		b.Fatalf("run: code=%d err=%v", code, err)
	}
	return rt.Instret()
}

// BenchmarkInstantiate times mrt.New alone on instrumented
// workloads: sandbox, tables, page protections and the first policy
// publication. Release runs outside the timer.
func BenchmarkInstantiate(b *testing.B) {
	for _, name := range []string{"perlbench", "gcc", "lbm"} {
		b.Run(name, func(b *testing.B) {
			img := buildFor(b, name, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := mrt.New(img, mrt.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rt.Release()
				b.StartTimer()
			}
		})
	}
}

// --- E1: Fig. 5 — per-benchmark execution cost, baseline vs MCFI ---

func benchFig5(b *testing.B, name string, instrument bool) {
	img := buildFor(b, name, instrument)
	var instr int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instr = runImage(b, img, nil)
	}
	b.ReportMetric(float64(instr), "guest-instrs")
}

func BenchmarkFig5(b *testing.B) {
	for _, w := range workload.All() {
		b.Run(w.Name+"/baseline", func(b *testing.B) { benchFig5(b, w.Name, false) })
		b.Run(w.Name+"/mcfi", func(b *testing.B) { benchFig5(b, w.Name, true) })
	}
}

// --- E2: Fig. 6 — MCFI under 50 Hz update transactions ---

func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{"perlbench", "gcc", "sjeng", "lbm"} {
		b.Run(name+"/mcfi+50hz", func(b *testing.B) {
			img := buildFor(b, name, true)
			var instr int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				instr = runImage(b, img, func(rt *mrt.Runtime, stop <-chan struct{}) {
					tick := time.NewTicker(20 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
						}
					}
				})
			}
			b.ReportMetric(float64(instr), "guest-instrs")
		})
	}
}

// --- E3: §8.1 STM micro-benchmark — MCFI vs TML vs RWL vs Mutex ---

func stmTables() func(*tables.Tables) {
	return func(tb *tables.Tables) {
		tb.Update(func(addr int) int {
			if addr%64 == 0 {
				return addr/64%32 + 1
			}
			return -1
		}, func(i int) int {
			if i < 32 {
				return i + 1
			}
			return -1
		}, tables.UpdateOpts{})
	}
}

func benchChecker(b *testing.B, ck tables.Checker) {
	// A 50 Hz writer runs alongside, as in the paper's measurement.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ck.Reversion()
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			br := i & 31
			if ck.Check(br, 64*br) != tables.Pass {
				b.Fail()
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func BenchmarkSTM(b *testing.B) {
	for _, ck := range tables.NewCheckers(1<<16, 64, stmTables()) {
		b.Run(ck.Name(), func(b *testing.B) { benchChecker(b, ck) })
	}
}

// --- E7/E10: Table 3 CFG generation at gcc scale (§8.2: ~150 ms) ---

func BenchmarkCFGGen(b *testing.B) {
	w, _ := workload.ByName("gcc")
	gen := workload.GenerateModule("gcc", 42, w.Gen)
	img, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Build(w.TestSource(), gen)
	if err != nil {
		b.Fatal(err)
	}
	in := cfg.Input{
		Funcs: img.Aux.Funcs, IBs: img.Aux.IBs, RetSites: img.Aux.RetSites,
		SetjmpConts: img.Aux.SetjmpConts, Annotations: img.Aux.AsmAnnotations,
		Profile: img.Profile,
	}
	var g *cfg.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = cfg.Generate(in)
	}
	b.ReportMetric(float64(g.Stats.EQCs), "EQCs")
}

// --- E9: ROP gadget scanning throughput ---

func BenchmarkROPFind(b *testing.B) {
	img := buildFor(b, "gcc", false)
	b.SetBytes(int64(len(img.Code)))
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(rop.Find(img.Code, rop.DefaultMaxLen))
	}
	b.ReportMetric(float64(n), "gadgets")
}

// --- toolchain and verifier throughput ---

func BenchmarkCompileGcc(b *testing.B) {
	w, _ := workload.ByName("gcc")
	src := w.TestSource()
	tb := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyLibc(b *testing.B) {
	lc, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Libc()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(lc.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifier.Verify(lc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1: array ID tables vs a hash-map representation
// (paper §5.1 rejects the hash map for lookup cost) ---

func BenchmarkAblationTaryArray(b *testing.B) {
	tb := tables.New(1<<20, 8)
	tb.Update(func(addr int) int {
		if addr%16 == 0 {
			return addr / 16 % 100
		}
		return -1
	}, func(i int) int { return i }, tables.UpdateOpts{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.Load32(int64((i % (1 << 16)) &^ 3))
	}
}

func BenchmarkAblationTaryHashMap(b *testing.B) {
	m := map[int64]uint32{}
	for addr := 0; addr < 1<<20; addr += 16 {
		m[int64(addr)] = uint32(id.Encode(addr/16%100, 1))
	}
	var mu sync.RWMutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.RLock()
		_ = m[int64((i%(1<<16))&^3)]
		mu.RUnlock()
	}
}

// --- Ablation 2: movnti-style parallel table publication vs
// sequential (paper §5.2 copyTaryTable) ---

func benchPublish(b *testing.B, parallel bool) {
	tb := tables.New(1<<22, 8) // 4 MiB of covered code -> 1M entries
	ecn := func(addr int) int {
		if addr%16 == 0 {
			return addr / 16 % 1000
		}
		return -1
	}
	bary := func(i int) int { return i }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Update(ecn, bary, tables.UpdateOpts{Parallel: parallel})
	}
}

func BenchmarkAblationCopySequential(b *testing.B) { benchPublish(b, false) }
func BenchmarkAblationCopyParallel(b *testing.B)   { benchPublish(b, true) }

// --- Ablation 3: reserved-bit alignment validation vs masking the
// target address (paper footnote 1: "we can insert an and instruction
// to align the indirect-branch targets ... but it incurs more
// overhead"). Modeled at the guest level: the masked variant executes
// one extra instruction per check transaction. ---

func benchAlignAblation(b *testing.B, extraMask bool) {
	// A tight indirect-call loop; the masked variant adds an ANDI per
	// iteration, mirroring the extra instruction the footnote costs.
	extra := ""
	if extraMask {
		extra = "x = x & 0x7FFFFFFC;"
	}
	src := fmt.Sprintf(`
int id1(int v) { return v; }
int (*fp)(int) = id1;
int main(void) {
	long x = 0;
	for (int i = 0; i < 50000; i++) {
		%s
		x += fp((int)x & 3);
	}
	return x >= 0 ? 0 : 1;
}`, extra)
	img, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Build(toolchain.Source{Name: "align", Text: src})
	if err != nil {
		b.Fatal(err)
	}
	var instr int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instr = runImage(b, img, nil)
	}
	b.ReportMetric(float64(instr), "guest-instrs")
}

func BenchmarkAblationAlignReservedBits(b *testing.B) { benchAlignAblation(b, false) }
func BenchmarkAblationAlignAndMask(b *testing.B)      { benchAlignAblation(b, true) }

// --- interpreter throughput (context for all instruction counts) ---

func BenchmarkVMThroughput(b *testing.B) {
	img := buildFor(b, "sjeng", true)
	b.ResetTimer()
	total := int64(0)
	for i := 0; i < b.N; i++ {
		total += runImage(b, img, nil)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs/1e6, "Minstr/s")
	}
}

// --- execution engines on the Fig. 5 sjeng harness: the interp
// reference vs the block compiler, instrumented (where every check is
// one fused host dispatch with its indirect branch folded) and
// baseline (the fusion lookup must not tax uninstrumented code) ---

func BenchmarkCheckFusion(b *testing.B) {
	for _, flavor := range []struct {
		name       string
		instrument bool
	}{{"mcfi", true}, {"baseline", false}} {
		img := buildFor(b, "sjeng", flavor.instrument)
		for _, e := range vm.Engines() {
			b.Run(flavor.name+"/"+e.String(), func(b *testing.B) {
				total := int64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total += runImageOpts(b, img, mrt.Options{Engine: e}, nil)
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(total)/secs/1e6, "Minstr/s")
				}
			})
		}
	}
}
