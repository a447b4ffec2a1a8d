package vm

import (
	"sync"
	"testing"

	"mcfi/internal/rewrite"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// threadedOutcome captures everything architecturally observable about
// a thread stopped by a fault or its budget (fused_test.go's
// runOutcome).
func threadedOutcome(th *Thread, err error) runOutcome {
	out := runOutcome{
		instret: th.Instret, pc: th.PC,
		r9: th.Reg[visa.R9], r10: th.Reg[visa.R10], r11: th.Reg[visa.R11],
		fa: th.fa, fb: th.fb,
	}
	if f, ok := err.(*Fault); ok {
		out.faulted, out.faultKind, out.faultPC = true, f.Kind, f.PC
	}
	return out
}

// TestThreadedCheckMatchesInterp is the fused grid with the indirect
// branch folded: the blob is a tail-jump check whose jmpr folds into
// the superinstruction, so every (branch, target) outcome — pass,
// invalid-bit halt, same-version halt — exercises the folded-branch
// path against the interp reference.
func TestThreadedCheckMatchesInterp(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000

	run := func(c engineCfg, branch, target int) (runOutcome, *Thread) {
		code, site := checkBlob(t, tb, branch)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{int64(blobAddr + site.CheckStart)})

		th := p.NewThread(blobAddr, visa.SandboxSize-64)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		return threadedOutcome(th, err), th
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
				got, tth := run(c, branch, target)
				if want != got {
					t.Errorf("%s branch %d target %#x:\n  interp: %+v\n  %s: %+v",
						c, branch, target, want, c, got)
				}
				if tth.FusedExecs != 1 {
					t.Errorf("%s branch %d target %#x: FusedExecs = %d, want 1 (fusion did not engage)",
						c, branch, target, tth.FusedExecs)
				}
			}
		}
	}
}

// TestThreadedVerdictFoldInstret pins the folded verdict-hit path: the
// self-targeting checked jump retires movi + and32 + (tloadi tload cmp
// je) + jmpr = 7 per iteration on every engine, with every iteration
// after the first served from the verdict cache AND transferring
// through the memoized folded branch.
func TestThreadedVerdictFoldInstret(t *testing.T) {
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
		tth, terr := run(c)
		if _, ok := terr.(*Fault); ok {
			t.Fatalf("%s spin faulted: %v", c, terr)
		}
		if ith.Instret != tth.Instret {
			t.Errorf("%s: instret diverges: interp %d, %s %d", c, ith.Instret, c, tth.Instret)
		}
		if tth.FusedExecs != iters {
			t.Errorf("%s: FusedExecs = %d, want %d", c, tth.FusedExecs, iters)
		}
		if tth.FusedVerdictHits != iters-1 {
			t.Errorf("%s: FusedVerdictHits = %d, want %d", c, tth.FusedVerdictHits, iters-1)
		}
	}
}

// callrBlob assembles an instrumented indirect call (check + alignment
// NOPs + callr) with the branch's Bary index patched in.
func callrBlob(t *testing.T, tb *tables.Tables, branch int) ([]byte, rewrite.CheckSite) {
	t.Helper()
	a := visa.NewAsm()
	site := rewrite.EmitIndirectCall(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	return a.Code, site
}

// TestThreadedFoldedCallr exercises the folded callr — including the
// rewriter's alignment NOPs between check and branch, the pushed
// return address, and a push that faults on an unmapped stack (the
// fault must name the callr's PC and retire it, exactly as interp).
func TestThreadedFoldedCallr(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000

	run := func(c engineCfg, target int, sp int64) (runOutcome, *Thread, *Process) {
		code, site := callrBlob(t, tb, 0)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{int64(blobAddr + site.CheckStart)})
		th := p.NewThread(blobAddr, sp)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		return threadedOutcome(th, err), th, p
	}

	for _, c := range fastCfgs() {
		// Passing call: lands on the HLT carpet with the return address
		// pushed; compare the stack word too.
		wantOut, wantTh, wantP := run(interpCfg, 0x1000, visa.SandboxSize-64)
		gotOut, gotTh, gotP := run(c, 0x1000, visa.SandboxSize-64)
		if wantOut != gotOut {
			t.Errorf("%s pass: interp %+v != %+v", c, wantOut, gotOut)
		}
		if wantTh.Reg[visa.SP] != gotTh.Reg[visa.SP] {
			t.Errorf("%s pass: SP diverges: %#x vs %#x", c, wantTh.Reg[visa.SP], gotTh.Reg[visa.SP])
		}
		sp := wantTh.Reg[visa.SP]
		for i := int64(0); i < 8; i++ {
			if wantP.Mem[sp+i] != gotP.Mem[sp+i] {
				t.Errorf("%s pass: pushed return address diverges at +%d: %#x vs %#x",
					c, i, wantP.Mem[sp+i], gotP.Mem[sp+i])
			}
		}
		if gotTh.FusedExecs != 1 {
			t.Errorf("%s pass: FusedExecs = %d, want 1", c, gotTh.FusedExecs)
		}

		// Faulting push: SP in the unmapped guard band.
		wantOut, _, _ = run(interpCfg, 0x1000, 8)
		gotOut, _, _ = run(c, 0x1000, 8)
		if wantOut != gotOut {
			t.Errorf("%s push fault: interp %+v != %+v", c, wantOut, gotOut)
		}
		if !gotOut.faulted || gotOut.faultKind != FaultMem {
			t.Errorf("%s push fault: got %+v, want a memory fault at the callr", c, gotOut)
		}
	}
}

// pltBlob assembles one instrumented PLT stub (GOT-reloading check +
// jmpr) with the branch's Bary index patched in.
func pltBlob(t *testing.T, tb *tables.Tables, branch int, gotAddr int64) []byte {
	t.Helper()
	a := visa.NewAsm()
	tl := rewrite.EmitPLTCheck(a, gotAddr, true)
	a.Emit(visa.Instr{Op: visa.JMPR, R1: visa.R11})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[tl+2+i] = byte(imm >> (8 * i))
	}
	return a.Code
}

// TestThreadedPLTCheckMatchesInterp runs the PLT-stub template over the
// (branch, target) grid on every blockjit setting: the GOT
// slot holds the target, the stub reloads it each round, and both the
// pass and halt paths must match interp bit-exactly — as must a GOT
// slot on an unmapped page, whose ld64 faults mid-superinstruction.
func TestThreadedPLTCheckMatchesInterp(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000
	const gotPage = int64(0x4000)

	run := func(c engineCfg, branch, target int, gotAddr int64) (runOutcome, *Thread) {
		code := pltBlob(t, tb, branch, gotAddr)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.Protect(gotPage, PageSize, visa.ProtRead|visa.ProtWrite)
		for i := 0; i < 8; i++ {
			p.Mem[gotPage+int64(i)] = byte(uint64(target) >> (8 * i))
		}
		p.RegisterCheckSites([]int64{blobAddr})

		th := p.NewThread(blobAddr, visa.SandboxSize-64)
		err := th.Run(4096)
		return threadedOutcome(th, err), th
	}

	targets := []int{
		0x1000, 0x1040, 0x10C0,
		0x1000 + 64*8, // invalid bit
		0x1002,        // misaligned -> invalid
		0x9000,        // outside the table
	}
	for branch := 0; branch < 4; branch++ {
		for _, target := range targets {
			want, _ := run(interpCfg, branch, target, gotPage)
			for _, e := range fastCfgs() {
				got, th := run(e, branch, target, gotPage)
				if want != got {
					t.Errorf("%s branch %d target %#x:\n  interp: %+v\n  %s: %+v",
						e, branch, target, want, e, got)
				}
				if th.FusedPLTExecs != 1 {
					t.Errorf("%s branch %d target %#x: FusedPLTExecs = %d, want 1",
						e, branch, target, th.FusedPLTExecs)
				}
			}
		}
	}
	// GOT slot on an unmapped page: the ld64 reload faults.
	want, _ := run(interpCfg, 0, 0x1000, int64(visa.SandboxSize))
	for _, e := range fastCfgs() {
		got, _ := run(e, 0, 0x1000, int64(visa.SandboxSize))
		if want != got {
			t.Errorf("%s GOT fault: interp %+v != %s %+v", e, want, e, got)
		}
		if !got.faulted || got.faultKind != FaultMem || got.faultPC != blobAddr+rewrite.PLTCheckLoadOffset {
			t.Errorf("%s GOT fault: got %+v, want memory fault at the ld64 (%#x)",
				e, got, blobAddr+rewrite.PLTCheckLoadOffset)
		}
	}
}

// TestThreadedPLTVerdictCache pins the PLT verdict cache: a spinning
// PLT stub whose GOT points back at the stub itself serves every
// round after the first from the cache, with instret bit-identical to
// interp (each round is movi, ld64, and32, tloadi, tload, cmp, je,
// jmpr = 8 instructions).
func TestThreadedPLTVerdictCache(t *testing.T) {
	const stub = int64(0x1000)
	const gotPage = int64(0x4000)
	mk := func() *tables.Tables {
		tb := tables.New(1<<14, 8)
		tb.Update(func(addr int) int {
			if addr == int(stub) {
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
	const iters = 500
	const budget = 8 * iters

	run := func(c engineCfg) (*Thread, error) {
		tb := mk()
		code := pltBlob(t, tb, 0, gotPage)
		p := NewProcess()
		p.Tables = tb
		c.apply(p)
		copy(p.Mem[stub:], code)
		p.Protect(stub, int64(len(code)), visa.ProtRead|visa.ProtExec)
		p.Protect(gotPage, PageSize, visa.ProtRead|visa.ProtWrite)
		for i := 0; i < 8; i++ {
			p.Mem[gotPage+int64(i)] = byte(uint64(stub) >> (8 * i))
		}
		p.RegisterCheckSites([]int64{stub})
		th := p.NewThread(stub, visa.SandboxSize-64)
		err := th.Run(budget)
		return th, err
	}

	ith, ierr := run(interpCfg)
	if _, ok := ierr.(*Fault); ok {
		t.Fatalf("interp PLT spin faulted: %v", ierr)
	}
	for _, c := range fastCfgs() {
		tth, terr := run(c)
		if _, ok := terr.(*Fault); ok {
			t.Fatalf("%s PLT spin faulted: %v", c, terr)
		}
		if ith.Instret != tth.Instret {
			t.Errorf("%s: instret diverges: interp %d, %s %d", c, ith.Instret, c, tth.Instret)
		}
		if tth.FusedPLTExecs != iters {
			t.Errorf("%s: FusedPLTExecs = %d, want %d", c, tth.FusedPLTExecs, iters)
		}
		if tth.FusedVerdictHits != iters-1 {
			t.Errorf("%s: FusedVerdictHits = %d, want %d", c, tth.FusedVerdictHits, iters-1)
		}
	}
}

// TestThreadedTraceMaskStore pins the sandbox-mask + store trace
// superinstruction: architectural effects, memory contents, and the
// faulting variant (store to a read-only page) must match interp.
func TestThreadedTraceMaskStore(t *testing.T) {
	build := func(dst int64) []byte {
		a := visa.NewAsm()
		a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: dst})
		a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 0x1122334455667788})
		a.Emit(visa.Instr{Op: visa.ANDI, R1: visa.R1, Imm: visa.StoreMask})
		a.Emit(visa.Instr{Op: visa.ST64, R1: visa.R2, R2: visa.R1, Imm: 8})
		a.Emit(visa.Instr{Op: visa.HLT})
		if err := a.Finish(); err != nil {
			t.Fatal(err)
		}
		return a.Code
	}

	run := func(c engineCfg, dst int64, writable bool) (runOutcome, *Process, *Thread) {
		code := build(dst)
		p := NewProcess()
		c.apply(p)
		copy(p.Mem[0x1000:], code)
		p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
		prot := uint32(visa.ProtRead)
		if writable {
			prot |= visa.ProtWrite
		}
		p.Protect(0x4000, PageSize, prot)
		th := p.NewThread(0x1000, visa.SandboxSize-64)
		err := th.Run(64)
		return threadedOutcome(th, err), p, th
	}

	for _, e := range fastCfgs() {
		for _, c := range []struct {
			name     string
			dst      int64
			writable bool
		}{
			{"store-ok", 0x4000, true},
			{"store-fault", 0x4000, false},
			// The mask matters: an address with bits above the sandbox
			// set must be wrapped into range before the store.
			{"mask-applies", 0x4000 | (1 << 40), true},
		} {
			want, wp, wth := run(interpCfg, c.dst, c.writable)
			got, gp, gth := run(e, c.dst, c.writable)
			if want != got {
				t.Errorf("%s %s: interp %+v != %+v", e, c.name, want, got)
			}
			if wth.Reg[visa.R1] != gth.Reg[visa.R1] || wth.Reg[visa.R2] != gth.Reg[visa.R2] {
				t.Errorf("%s %s: registers diverge: r1 %#x/%#x r2 %#x/%#x", e, c.name,
					wth.Reg[visa.R1], gth.Reg[visa.R1], wth.Reg[visa.R2], gth.Reg[visa.R2])
			}
			for i := int64(0); i < 16; i++ {
				if wp.Mem[0x4000+i] != gp.Mem[0x4000+i] {
					t.Errorf("%s %s: memory diverges at %#x: %#x vs %#x",
						e, c.name, 0x4000+i, wp.Mem[0x4000+i], gp.Mem[0x4000+i])
				}
			}
		}
	}
}

// TestThreadedFillInvalidateRace drives the icache fill/fold path and
// block compilation while a host goroutine keeps flipping the code
// pages' protection (the dlopen rebasing pattern) and re-registering
// check sites. Under -race this exercises slot and block publication
// against invalidation; semantically the spin must never fault,
// because every protection transition leaves the code executable
// again and the epoch bump only forces re-validation.
func TestThreadedFillInvalidateRace(t *testing.T) {
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
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// The dlopen pattern: W^X flip, register, flip back.
					p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
					p.RegisterCheckSites([]int64{checkStart})
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tb.Reversion(tables.UpdateOpts{})
				}
			}
		}()
		err := th.Run(500_000)
		close(stop)
		wg.Wait()
		if f, ok := err.(*Fault); ok {
			t.Fatalf("%s: spin faulted under invalidate storm: %v", c, f)
		}
		if th.FusedExecs == 0 {
			t.Errorf("%s: fusion did not engage", c)
		}
	}
}
