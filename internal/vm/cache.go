// Per-executable-page instruction cache: the fetch path of
// EngineBlockJIT's cold (not yet compiled) code. The interpreter calls
// visa.Decode on raw bytes at every retired instruction; for
// long-running workloads that is the dominant cost of the stand-in
// CPU. The cache decodes each instruction once into its fixed-size
// internal form (visa.Instr plus encoded length and handler) and
// dispatches from the slot thereafter.
//
// Correctness hinges on precise invalidation. Code can only change
// while its page is not executable (the W^X invariant), and every
// protection transition goes through Process.Protect — the runtime's
// mprotect/mmap analogue and the dlopen path both use it — so Protect
// drops the cache of every affected page. Because VISA instructions
// are variable-length (up to 10 bytes), an instruction cached in page
// P may extend into page P+1; invalidating a range therefore also
// drops the page immediately before it.
//
// Retired-instruction counts and fault behavior are bit-identical to
// the plain interpreter: every slot's handler reproduces Step's case
// for its opcode, and the superinstructions a slot may hold (fused
// checks, mask+store traces) retire exactly the guest instructions
// they replace, so the Fig. 5/6 cost metric is a property of the
// instruction stream, not of how it is fetched.
package vm

import (
	"sync"
	"sync/atomic"

	"mcfi/internal/visa"
)

// pageCache holds the predecoded instructions of one guest page,
// indexed by the instruction's starting offset within the page. Slots
// are published with an atomic bitmap store after their fields are
// written, so concurrent guest threads can share one cache; fills take
// the mutex (slow path only — each slot is decoded once per page
// generation).
type pageCache struct {
	mu    sync.Mutex
	valid [PageSize / 32]uint32
	slots [PageSize]cacheSlot
}

// cacheSlot colocates everything one dispatch needs — the predecoded
// instruction, its encoded size, and the operation's func pointer (the
// direct-threaded dispatch target) — so a hit touches one cache line
// instead of three parallel arrays.
type cacheSlot struct {
	ins  visa.Instr
	fn   stepFn
	size uint8
}

// predecode decodes the instruction at pc into its executable form: a
// registered, byte-verified check transaction becomes one fused
// superinstruction (fused.go), a sandbox-mask + store pair one trace
// superinstruction (threaded.go), anything else its plain decoding.
// The icache fill and the block compiler both fetch through it, so
// cold and compiled code retire the identical instruction stream.
func (p *Process) predecode(pc int64) (visa.Instr, int, error) {
	if ins, n, ok := p.tryFuse(pc); ok {
		return ins, n, nil
	}
	ins, n, err := visa.Decode(p.Mem, int(pc))
	if err != nil {
		return ins, n, err
	}
	ins, n = p.tryFuseTrace(ins, n, pc)
	return ins, n, nil
}

// cacheFill predecodes the instruction at pc and publishes it into the
// page's cache. The caller has already checked that pc is executable.
func (p *Process) cacheFill(pc int64) (*visa.Instr, int, error) {
	p.icacheFills.Add(1)
	ins, n, err := p.predecode(pc)
	if err != nil {
		return nil, 0, err
	}
	slot := &p.icache[pc/PageSize]
	c := slot.Load()
	if c == nil {
		nc := &pageCache{}
		if slot.CompareAndSwap(nil, nc) {
			c = nc
		} else {
			c = slot.Load()
		}
	}
	if c == nil {
		// The page was invalidated while we were decoding; execute the
		// instruction we decoded without caching it.
		tmp := ins
		return &tmp, n, nil
	}
	off := int(pc & (PageSize - 1))
	word, bit := &c.valid[off>>5], uint32(1)<<(off&31)
	c.mu.Lock()
	if atomic.LoadUint32(word)&bit == 0 {
		c.slots[off] = cacheSlot{ins: ins, size: uint8(n), fn: opFuncs[ins.Op]}
		atomic.StoreUint32(word, atomic.LoadUint32(word)|bit)
	}
	c.mu.Unlock()
	return &c.slots[off].ins, n, nil
}

// invalidate drops the decode cache of pages [first-1, last) — one
// page before the changed range because a variable-length instruction
// cached there may span into it. The block compiler's pages drop on
// the same bounds: a compiled block contains only instructions that
// start inside its own page, so the one-page-back rule covers every
// block that could span the changed range. (Protect additionally
// bumps the check epoch over the same extent, so cached verdicts
// bound to the old bytes cannot be replayed either.)
func (p *Process) invalidate(first, last int64) {
	if first > 0 {
		first--
	}
	if first < 0 {
		first = 0
	}
	for pg := first; pg < last && pg < int64(len(p.icache)); pg++ {
		p.icache[pg].Store(nil)
		p.jit.pages[pg].Store(nil)
	}
}

// SetEngine selects the execution engine. Call it before the process
// starts executing.
func (p *Process) SetEngine(e Engine) { p.engine = e }

// Engine reports the process's execution engine.
func (p *Process) Engine() Engine { return p.engine }
