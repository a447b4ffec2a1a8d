package vm

import (
	"testing"

	"mcfi/internal/rewrite"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// checkBlob assembles one instrumented tail-jump check (movi r11,
// target; check; jmpr r11 is left to the caller's prelude) and patches
// branch's Bary index into the TLOADI immediate.
func checkBlob(t *testing.T, tb *tables.Tables, branch int) ([]byte, rewrite.CheckSite) {
	t.Helper()
	a := visa.NewAsm()
	site := rewrite.EmitTailJump(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	return a.Code, site
}

// fusedGrid builds the shared table configuration of
// TestGuestCheckAgreesWithHostCheck.
func fusedGrid(t *testing.T) *tables.Tables {
	t.Helper()
	const codeLimit = 1 << 16
	tb := tables.New(codeLimit, 64)
	tb.Update(func(addr int) int {
		if addr >= 0x1000 && addr < 0x1000+64*64 && (addr-0x1000)%64 == 0 {
			return (addr-0x1000)/64%8 + 1
		}
		return -1
	}, func(i int) int {
		if i < 8 {
			return i + 1
		}
		return -1
	}, tables.UpdateOpts{})
	return tb
}

// runOutcome captures everything architecturally observable about one
// bounded run.
type runOutcome struct {
	faultKind FaultKind
	faultPC   int64
	faulted   bool
	instret   int64
	pc        int64
	r9, r10   int64
	r11       int64
	fa, fb    int64
}

// TestFusedCheckMatchesInterp runs the same check over a grid of
// (branch, target) pairs under the interp engine and every blockjit
// setting and demands identical architectural outcomes: fault kind and PC, retired
// count, continuation PC, the MCFI scratch registers, and the flags.
// Every target lands on an HLT, so passing checks terminate
// deterministically (at the landing pad's PC) rather than by budget.
func TestFusedCheckMatchesInterp(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)

	// The blob lives at an address outside the grid's target set, so a
	// passing jump always leaves it and lands on the HLT carpet.
	const blobAddr = 0x8000

	run := func(c engineCfg, branch, target int) (runOutcome, *Thread) {
		code, site := checkBlob(t, tb, branch)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		// Carpet the code region with HLTs so any passing jump faults
		// at its landing address.
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{int64(blobAddr + site.CheckStart)})

		th := p.NewThread(blobAddr, visa.SandboxSize-64)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		out := runOutcome{
			instret: th.Instret, pc: th.PC,
			r9: th.Reg[visa.R9], r10: th.Reg[visa.R10], r11: th.Reg[visa.R11],
			fa: th.fa, fb: th.fb,
		}
		if f, ok := err.(*Fault); ok {
			out.faulted, out.faultKind, out.faultPC = true, f.Kind, f.PC
		}
		return out, th
	}

	targets := []int{
		0x1000, 0x1040, 0x1080, 0x10C0,
		0x1000 + 64*8,
		0x1002,
		0x0FF0,
		0x9000,
		0x1000 + 64*63,
	}
	for branch := 0; branch < 8; branch++ {
		for _, target := range targets {
			want, _ := run(interpCfg, branch, target)
			for _, c := range fastCfgs() {
				got, fth := run(c, branch, target)
				if want != got {
					t.Errorf("%s branch %d target %#x:\n  interp: %+v\n  %s: %+v",
						c, branch, target, want, c, got)
				}
				if fth.FusedExecs != 1 {
					t.Errorf("%s branch %d target %#x: FusedExecs = %d, want 1 (fusion did not engage)",
						c, branch, target, fth.FusedExecs)
				}
			}
		}
	}
}

// spinLoop assembles "L: movi r11, loopAddr; check; jmpr r11" — a
// self-targeting checked jump — at loopAddr, with branch 0's Bary
// index patched in. Returns the code and the absolute check start.
func spinLoop(t *testing.T, tb *tables.Tables, loopAddr int64) ([]byte, int64) {
	t.Helper()
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R11, Imm: loopAddr})
	site := rewrite.EmitTailJump(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase())
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	return a.Code, loopAddr + int64(site.CheckStart)
}

// TestFusedVerdictCacheHitsAndInstret pins the verdict cache: a
// spinning self-checked jump must serve every iteration after the
// first from the cache, while the retired count stays bit-identical to
// the interp engine over the same number of loop iterations.
func TestFusedVerdictCacheHitsAndInstret(t *testing.T) {
	mk := func() *tables.Tables {
		tb := tables.New(1<<14, 8)
		tb.Update(func(addr int) int {
			if addr == 0x1000 {
				return 1
			}
			return -1
		}, func(i int) int {
			if i == 0 {
				return 1
			}
			return -1
		}, tables.UpdateOpts{})
		return tb
	}

	// One loop iteration retires movi + and32 + (tloadi tload cmp je) +
	// jmpr = 7 instructions; budget a whole number of iterations so
	// both engines stop at the same architectural point.
	const iters = 1000
	const budget = 7 * iters

	run := func(c engineCfg) (*Thread, error) {
		tb := mk()
		code, checkStart := spinLoop(t, tb, 0x1000)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		copy(p.Mem[0x1000:], code)
		p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{checkStart})
		th := p.NewThread(0x1000, visa.SandboxSize-64)
		err := th.Run(budget)
		return th, err
	}

	ith, ierr := run(interpCfg)
	if _, ok := ierr.(*Fault); ok {
		t.Fatalf("interp spin faulted: %v", ierr)
	}
	for _, c := range fastCfgs() {
		fth, ferr := run(c)
		if _, ok := ferr.(*Fault); ok {
			t.Fatalf("%s spin faulted: %v", c, ferr)
		}
		if ith.Instret != fth.Instret {
			t.Errorf("%s: instret diverges: interp %d, %s %d", c, ith.Instret, c, fth.Instret)
		}
		if fth.FusedExecs != iters {
			t.Errorf("%s: FusedExecs = %d, want %d", c, fth.FusedExecs, iters)
		}
		if fth.FusedVerdictHits != iters-1 {
			t.Errorf("%s: FusedVerdictHits = %d, want %d (every pass after the first)",
				c, fth.FusedVerdictHits, iters-1)
		}
		// The process-wide counters (the serving /metrics source) must
		// agree with the thread-local ones once Run has flushed.
		st := fth.P.CheckStatsSnapshot()
		if st.Execs != fth.FusedExecs || st.VerdictHits != fth.FusedVerdictHits {
			t.Errorf("%s: process counters %+v diverge from thread (execs %d, hits %d)",
				c, st, fth.FusedExecs, fth.FusedVerdictHits)
		}
		if st.VerdictMisses != 1 {
			t.Errorf("%s: VerdictMisses = %d, want 1 (only the first pass)", c, st.VerdictMisses)
		}
	}
}

// TestFusedVerdictDiesOnUpdate is the stale-verdict check: a site
// passes and caches its verdict, then an update transaction moves the
// branch into a different equivalence class. The next execution MUST
// re-load the tables and halt; a verdict surviving the version bump
// would let an old-CFG edge through the new CFG.
func TestFusedVerdictDiesOnUpdate(t *testing.T) {
	classOf := func(branchClass int) (func(int) int, func(int) int) {
		return func(addr int) int {
				if addr == 0x1000 {
					return 1
				}
				return -1
			}, func(i int) int {
				if i == 0 {
					return branchClass
				}
				return -1
			}
	}
	for _, c := range fastCfgs() {
		tb := tables.New(1<<14, 8)
		taryF, baryF := classOf(1)
		tb.Update(taryF, baryF, tables.UpdateOpts{})

		code, checkStart := spinLoop(t, tb, 0x1000)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		// Wire the invalidation hook exactly as mrt.New does.
		tb.OnUpdate(p.BumpCheckEpoch)
		copy(p.Mem[0x1000:], code)
		p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{checkStart})

		th := p.NewThread(0x1000, visa.SandboxSize-64)
		if err := th.Run(700); err != nil {
			if _, ok := err.(*Fault); ok {
				t.Fatalf("%s: priming spin faulted: %v", c, err)
			}
		}
		if th.FusedVerdictHits == 0 {
			t.Fatalf("%s: no verdict hits while priming; cache not engaged", c)
		}

		// The branch moves to class 2; its only target stays class 1.
		// Both now carry the same (new) version, so the check must halt.
		taryF2, baryF2 := classOf(2)
		tb.Update(taryF2, baryF2, tables.UpdateOpts{})

		// Run's budget is an absolute Instret bound; extend it past the
		// priming run's count.
		err := th.Run(th.Instret + 700)
		f, ok := err.(*Fault)
		if !ok || f.Kind != FaultCFI {
			t.Fatalf("%s: stale verdict survived the update: err=%v (want CFI halt)", c, err)
		}
		if f.PC != checkStart+rewrite.CheckHaltOffset {
			t.Errorf("%s: halt PC = %#x, want %#x", c, f.PC, checkStart+rewrite.CheckHaltOffset)
		}
	}
}

// TestFusedRetriesThroughUpdate mirrors
// TestGuestCheckRetriesThroughUpdate on every blockjit setting: the spinning
// checked jump keeps passing while a host goroutine re-versions the
// tables continuously. Run under -race this also exercises the
// verdict-cache/update-transaction interleavings.
func TestFusedRetriesThroughUpdate(t *testing.T) {
	for _, c := range fastCfgs() {
		tb := tables.New(1<<14, 8)
		tb.Update(func(addr int) int {
			if addr == 0x1000 {
				return 1
			}
			return -1
		}, func(i int) int {
			if i == 0 {
				return 1
			}
			return -1
		}, tables.UpdateOpts{})

		code, checkStart := spinLoop(t, tb, 0x1000)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		tb.OnUpdate(p.BumpCheckEpoch)
		copy(p.Mem[0x1000:], code)
		p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{checkStart})
		th := p.NewThread(0x1000, visa.SandboxSize-64)

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					tb.Reversion(tables.UpdateOpts{})
				}
			}
		}()
		err := th.Run(300_000)
		close(stop)
		<-done
		if f, ok := err.(*Fault); ok {
			t.Fatalf("%s: fused checked jump faulted under concurrent updates: %v", c, f)
		}
		if th.FusedExecs == 0 {
			t.Errorf("%s: fusion did not engage", c)
		}
	}
}

// TestFusedFallbackOnNonCanonicalSite registers an address that does
// not hold the canonical check sequence; predecode must re-verify the
// bytes, refuse to fuse, and execute identically to the interp engine.
func TestFusedFallbackOnNonCanonicalSite(t *testing.T) {
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 7})
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 35})
	a.Emit(visa.Instr{Op: visa.ADD, R1: visa.R1, R2: visa.R2})
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}

	run := func(c engineCfg) *Thread {
		tb := tables.New(1<<14, 8)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		copy(p.Mem[0x1000:], a.Code)
		p.Protect(0x1000, int64(len(a.Code)), visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{0x1000}) // bogus: not a check
		th := p.NewThread(0x1000, visa.SandboxSize-64)
		err := th.Run(100)
		if f, ok := err.(*Fault); !ok || f.Kind != FaultCFI {
			t.Fatalf("%s: want the trailing hlt, got %v", c, err)
		}
		return th
	}

	ith := run(interpCfg)
	for _, c := range fastCfgs() {
		fth := run(c)
		if ith.Instret != fth.Instret || ith.Reg[visa.R1] != fth.Reg[visa.R1] {
			t.Errorf("fallback diverges: interp (instret=%d r1=%d) %s (instret=%d r1=%d)",
				ith.Instret, ith.Reg[visa.R1], c, fth.Instret, fth.Reg[visa.R1])
		}
		if fth.Reg[visa.R1] != 42 {
			t.Errorf("%s: r1 = %d, want 42", c, fth.Reg[visa.R1])
		}
		if fth.FusedExecs != 0 {
			t.Errorf("%s: FusedExecs = %d, want 0 (non-canonical bytes must not fuse)", c, fth.FusedExecs)
		}
	}
}
