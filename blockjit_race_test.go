// Race-hardening test for the block compiler: an instrumented workload
// runs on EngineBlockJIT while a host goroutine issues table update
// transactions as fast as it can — the dynamic-linking scenario,
// compressed. Every update bumps the check epoch, and the storm runs at
// three thresholds so `go test -race` covers both halves of the engine
// and the configuration every caller gets:
//
//   - threshold 4 (compile-eager): concurrent block compilation,
//     epoch-stamped dispatch, discard-and-recompile, and jit-page
//     invalidation against the storm. A compiled block that survived
//     an epoch bump would replay a stale check verdict.
//   - cold-only: per-slot dispatch alone — icache slot publication,
//     branch folding past the check span, the verdict cache with its
//     epoch hook firing inside the update lock while guest threads read
//     it lock-free, and the bounded host retry loop handing version
//     storms back to per-instruction dispatch.
//   - the default threshold: compiled blocks and cold dispatch mixed as
//     deployed, blocks turning hot while the storm discards others.
//
// The differential assertion against the interpreter catches any of
// them going wrong.
package mcfi

import (
	"sync"
	"testing"

	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

func TestBlockJITEngineUnderUpdateStorm(t *testing.T) { stormBlockJIT(t, 4) }

func TestBlockJITColdPathUnderUpdateStorm(t *testing.T) { stormBlockJIT(t, jitColdOnly) }

func TestBlockJITDefaultUnderUpdateStorm(t *testing.T) { stormBlockJIT(t, 0) }

// stormBlockJIT runs sjeng on EngineBlockJIT at the given threshold
// (0 = vm.DefaultJITThreshold) under a Reversion storm and checks it
// against an undisturbed interp run.
func stormBlockJIT(t *testing.T, threshold int64) {
	w, ok := workload.ByName("sjeng")
	if !ok {
		t.Fatal("sjeng workload missing")
	}
	img, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Build(w.TestSource())
	if err != nil {
		t.Fatal(err)
	}

	ref := runClean(t, img, mrt.Options{Engine: vm.EngineInterp})

	opts := mrt.Options{Engine: vm.EngineBlockJIT, JITThreshold: threshold}
	rt, err := mrt.New(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
			}
		}
	}()
	code, err := rt.Run(2_000_000_000)
	close(stop)
	wg.Wait()

	if err != nil {
		t.Fatalf("run under updates: %v (output %q)", err, rt.Output())
	}
	if code != ref.code || rt.Output() != ref.output {
		t.Errorf("run under updates diverges from interp:\n  interp:   code=%d out=%q\n  blockjit: code=%d out=%q",
			ref.code, ref.output, code, rt.Output())
	}
	st := rt.CheckStats()
	if st.Execs == 0 {
		t.Errorf("no fused check executed under the storm")
	}
	if threshold == jitColdOnly {
		if st.JITBlocks != 0 {
			t.Errorf("cold-only run compiled %d blocks", st.JITBlocks)
		}
	} else {
		if st.JITBlocks == 0 {
			t.Errorf("no blocks compiled under the storm (threshold %d)", threshold)
		}
		if rt.Tables.Updates() >= 2 && st.JITDiscards == 0 {
			t.Errorf("%d update transactions bumped the epoch but no compiled block was discarded", rt.Tables.Updates())
		}
	}
	t.Logf("storm: %d updates, %d blocks compiled, %d discarded, %d block runs / %d cold steps",
		rt.Tables.Updates(), st.JITBlocks, st.JITDiscards, st.JITBlockRuns, st.JITColdSteps)

	// Without updates the run must be bit-identical down to
	// instret: a compiled block retires exactly the instructions
	// it replaces, a folded branch the branch, and a verdict hit
	// the pass it memoized. (Under updates the retry counts are
	// scheduling-dependent, so only the quiet run is compared.)
	rtq, err := mrt.New(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	qcode, err := rtq.Run(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	quiet := engineRun{code: qcode, output: rtq.Output(), instret: rtq.Instret()}
	if quiet != ref {
		t.Errorf("quiet run diverges from interp:\n  interp:   code=%d instret=%d\n  blockjit: code=%d instret=%d",
			ref.code, ref.instret, quiet.code, quiet.instret)
	}
	// Its counters prove the threshold took: mostly hot
	// dispatches once warm, or none at all when cold-only.
	stq := rtq.CheckStats()
	if threshold == jitColdOnly {
		if stq.JITBlockRuns != 0 {
			t.Errorf("cold-only quiet run dispatched %d compiled blocks", stq.JITBlockRuns)
		}
	} else if stq.JITBlockRuns == 0 || stq.JITBlockRuns < stq.JITColdSteps {
		t.Errorf("quiet run was not block-dominated: %d block runs vs %d cold steps",
			stq.JITBlockRuns, stq.JITColdSteps)
	}
}
