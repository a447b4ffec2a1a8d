package vm

import (
	"fmt"
	"math"
	"testing"

	"mcfi/internal/visa"
)

// jitColdOnly is a block-compile threshold no test run reaches, so
// EngineBlockJIT keeps every instruction on per-slot dispatch.
const jitColdOnly = math.MaxUint32

// engineCfg is one engine setting a differential grid runs: an engine
// plus, for EngineBlockJIT, its block-compile threshold.
type engineCfg struct {
	engine    Engine
	threshold int64
}

// interpCfg is the reference every grid compares against.
var interpCfg = engineCfg{engine: EngineInterp}

// fastCfgs returns the blockjit settings the grids compare against
// interp: compile on first entry, the race storms' threshold 4, and
// cold-only, so both the compiled-block path and the per-slot dispatch
// path are held to the reference.
func fastCfgs() []engineCfg {
	return []engineCfg{
		{EngineBlockJIT, 1},
		{EngineBlockJIT, 4},
		{EngineBlockJIT, jitColdOnly},
	}
}

func (c engineCfg) String() string {
	switch {
	case c.engine == EngineInterp:
		return c.engine.String()
	case c.threshold == jitColdOnly:
		return c.engine.String() + "@cold"
	}
	return fmt.Sprintf("%s@%d", c.engine, c.threshold)
}

// apply selects the setting on a process that has not started yet.
func (c engineCfg) apply(p *Process) {
	p.SetEngine(c.engine)
	p.SetJITThreshold(c.threshold)
}

// runToHalt executes a fresh thread at CodeBase until the HLT fault
// and returns R0 (the probe value the code computed).
func runToHalt(t *testing.T, p *Process) int64 {
	t.Helper()
	th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
	err := th.Run(4096)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultCFI {
		t.Fatalf("expected HLT fault, got %v", err)
	}
	return th.Reg[visa.R0]
}

func emitProbe(imm int64) []byte {
	var code []byte
	code = visa.Encode(code, visa.Instr{Op: visa.MOVI, R1: visa.R0, Imm: imm})
	code = visa.Encode(code, visa.Instr{Op: visa.HLT})
	return code
}

// TestDecodeCacheInvalidation is the jitsim regression: code runs from
// a page, the page is made writable and rewritten (a JIT installing a
// new stage), then flipped back to executable — exactly the
// write-page-then-mprotect-to-exec cycle of examples/jitsim and the
// dlopen path. Neither the icache nor a compiled block may ever
// execute the stale predecoded instructions.
func TestDecodeCacheInvalidation(t *testing.T) {
	for _, c := range fastCfgs() {
		p := NewProcess()
		c.apply(p)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

		copy(p.Mem[visa.CodeBase:], emitProbe(111))
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		for i := 0; i < 2; i++ { // the second run enters a compiled block at threshold 1
			if got := runToHalt(t, p); got != 111 {
				t.Fatalf("%s: first run: R0 = %d, want 111", c, got)
			}
		}

		// JIT cycle: write page -> mprotect to exec.
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtWrite)
		copy(p.Mem[visa.CodeBase:], emitProbe(222))
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		if got := runToHalt(t, p); got != 222 {
			t.Fatalf("%s: after rewrite: R0 = %d, want 222 (stale decode cache?)", c, got)
		}
	}
}

// TestDecodeCacheInvalidationSpanningPage rewrites only the second of
// two pages when a cached instruction starts on the first and its
// immediate extends into the second. Invalidating the written page
// alone would leave the stale instruction cached under the first page,
// so Protect must also drop the preceding page.
func TestDecodeCacheInvalidationSpanningPage(t *testing.T) {
	for _, c := range fastCfgs() {
		p := NewProcess()
		c.apply(p)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

		// Pad with NOPs so the 10-byte MOVI starts 5 bytes before the
		// page boundary: opcode+reg on page 0, the imm64 split across
		// both.
		pageEnd := int64(visa.CodeBase) + PageSize - int64(visa.CodeBase%PageSize)
		probe := emitProbe(0x1111_2222_3333_4444)
		start := pageEnd - 5
		for a := int64(visa.CodeBase); a < start; a++ {
			p.Mem[a] = byte(visa.NOP)
		}
		copy(p.Mem[start:], probe)
		p.Protect(visa.CodeBase, 2*PageSize, visa.ProtRead|visa.ProtExec)
		for i := 0; i < 2; i++ { // the second run enters a compiled block at threshold 1
			if got := runToHalt(t, p); got != 0x1111_2222_3333_4444 {
				t.Fatalf("%s: first run: R0 = %#x", c, got)
			}
		}

		// Rewrite ONLY the second page: the 5 immediate bytes that
		// landed there (the HLT right after them stays intact).
		p.Protect(pageEnd, PageSize, visa.ProtRead|visa.ProtWrite)
		for i := int64(0); i < 5; i++ {
			p.Mem[pageEnd+i] = 0x55
		}
		p.Protect(pageEnd, PageSize, visa.ProtRead|visa.ProtExec)
		got := runToHalt(t, p)
		// The low 3 immediate bytes live on page 0 and are unchanged;
		// the 5 bytes on page 1 now read 0x55.
		want := int64(0x5555_5555_5533_4444)
		if got != want {
			t.Fatalf("%s: after partial rewrite: R0 = %#x, want %#x (stale spanning instruction?)", c, got, want)
		}
	}
}

// TestEnginesRetireIdenticalStreams runs the same program under interp
// and every blockjit setting and checks the retired-instruction count and final registers
// are bit-identical (the Fig. 5/6 metric is engine-independent).
func TestEnginesRetireIdenticalStreams(t *testing.T) {
	// A loop: R1 counts down from 100, R2 accumulates.
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 100})
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 0})
	a.Label("loop")
	a.Emit(visa.Instr{Op: visa.ADD, R1: visa.R2, R2: visa.R1})
	a.Emit(visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: -1})
	a.Emit(visa.Instr{Op: visa.CMPI, R1: visa.R1, Imm: 0})
	a.EmitBranch(visa.JNE, "loop")
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}

	run := func(c engineCfg) (int64, int64, CheckStats) {
		p := NewProcess()
		c.apply(p)
		copy(p.Mem[visa.CodeBase:], a.Code)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		err := th.Run(10_000)
		if f, ok := err.(*Fault); !ok || f.Kind != FaultCFI {
			t.Fatalf("%s: %v", c, err)
		}
		return th.Instret, th.Reg[visa.R2], p.CheckStatsSnapshot()
	}
	ii, is, _ := run(interpCfg)
	for _, c := range fastCfgs() {
		ci, cs, st := run(c)
		if ci != ii || cs != is {
			t.Fatalf("engines diverge: %s (instret=%d sum=%d) vs interp (instret=%d sum=%d)",
				c, ci, cs, ii, is)
		}
		// The settings mean what they say: the 100-iteration loop
		// compiles at a low threshold and never at cold-only.
		if compiled := st.JITBlockRuns > 0; compiled != (c.threshold != jitColdOnly) {
			t.Errorf("%s: %d compiled-block runs, %d blocks", c, st.JITBlockRuns, st.JITBlocks)
		}
	}
	if is != 5050 {
		t.Fatalf("sum = %d, want 5050", is)
	}
}
