package cfg

import (
	"fmt"
	"maps"
	"testing"

	"mcfi/internal/module"
	"mcfi/internal/visa"
)

// fuzzSigs is the signature pool of generated programs. sigIIv is the
// variadic pointer type: it matches sigII and sigIIC, so it can bridge
// their classes.
var fuzzSigs = []string{sigII, sigVV, sigIIv, sigLI, sigIC, sigIIC}

// fuzzProgram decodes fuzz bytes into a base program and a sequence of
// module loads and dlsym flips. Reads past the end yield zero, so every
// input decodes. Function names are f0, f1, ... in definition order;
// references may name up to three functions not defined yet, which is
// how late-defined PLT callees, tail callees and direct callees with
// already recorded return sites arise.
type fuzzProgram struct {
	data    []byte
	pos     int
	profile visa.Profile
	nfuncs  int
}

func (p *fuzzProgram) next() int {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

func (p *fuzzProgram) sig() string { return fuzzSigs[p.next()%len(fuzzSigs)] }

func (p *fuzzProgram) name() string { return fmt.Sprintf("f%d", p.next()%(p.nfuncs+3)) }

// module decodes module k (0 is the base program). Modules sit at
// disjoint addresses, above the base or, when a placement bit says so,
// below it, so merges hit both the append and the interleave path.
func (p *fuzzProgram) module(k int) Input {
	in := Input{Profile: p.profile}
	addr := 0x10000 + k*0x400
	if k > 0 && p.next()&1 == 1 {
		addr = 0x8000 - k*0x400
	}
	at := func() int { addr += 4; return addr }
	for j, nf := 0, 1+p.next()%4; j < nf; j++ {
		b := p.next()
		f := module.FuncInfo{
			Name:      fmt.Sprintf("f%d", p.nfuncs),
			Offset:    at(),
			Sig:       fuzzSigs[b%len(fuzzSigs)],
			AddrTaken: b&0x10 != 0,
		}
		p.nfuncs++
		if b&0x20 != 0 {
			f.TailCalls = append(f.TailCalls, p.name())
		}
		if b&0x40 != 0 {
			in.Annotations = append(in.Annotations, f.Name+" : "+p.sig())
		}
		in.IBs = append(in.IBs, module.IndirectBranch{Offset: at(), Kind: module.IBRet, Func: f.Name})
		for s, ns := 0, p.next()%5; s < ns; s++ {
			switch p.next() % 6 {
			case 0, 1: // direct call
				in.RetSites = append(in.RetSites, module.RetSite{Offset: at(), Callee: p.name()})
			case 2: // indirect call
				sig := p.sig()
				in.IBs = append(in.IBs, module.IndirectBranch{Offset: at(), Kind: module.IBCall, Func: f.Name, FpSig: sig})
				in.RetSites = append(in.RetSites, module.RetSite{Offset: at(), FpSig: sig})
			case 3: // indirect tail call
				sig := p.sig()
				f.TailSigs = append(f.TailSigs, sig)
				in.IBs = append(in.IBs, module.IndirectBranch{Offset: at(), Kind: module.IBTailJmp, Func: f.Name, FpSig: sig})
			case 4: // setjmp continuation and a longjmp
				in.SetjmpConts = append(in.SetjmpConts, at())
				in.IBs = append(in.IBs, module.IndirectBranch{Offset: at(), Kind: module.IBLongjmp, Func: f.Name})
			case 5: // call through a PLT stub
				sym := p.name()
				in.IBs = append(in.IBs, module.IndirectBranch{Offset: at(), Kind: module.IBPLT, PLTSym: sym})
				in.RetSites = append(in.RetSites, module.RetSite{Offset: at(), Callee: sym})
			}
		}
		in.Funcs = append(in.Funcs, f)
	}
	return in
}

// FuzzExtendMatchesGenerate drives the delta path through a decoded
// load sequence. After every Extend that stays incremental, the
// memoized policy must equal a full Generate over the merged input,
// the delta must carry no already-published target, every reported
// branch ECN must be new or changed, and the published tables (the old
// ones plus the delta) must be the memoized policy. A fallback
// rebuilds the state from the merged input, as the runtime does.
func FuzzExtendMatchesGenerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &fuzzProgram{data: data, profile: visa.Profile64}
		if len(data) > 0 && data[0] == 32 { // no tail-call chasing
			p.profile = visa.Profile32
		}
		cur := p.module(0)
		inc := NewIncremental(cur, Generate(cur))
		for k := 1; k <= 8 && p.pos < len(p.data); k++ {
			// Flips name functions defined before this load, as the
			// runtime's do.
			defined := p.nfuncs
			delta := Input{Profile: p.profile} // a dlsym: a flip alone
			if p.next()%4 != 0 {
				delta = p.module(k)
			}
			var flipped []string
			for n := 1 + p.next()%2; n > 0; n-- {
				flipped = append(flipped, fmt.Sprintf("f%d", p.next()%defined))
			}

			tary, branch := maps.Clone(inc.TaryECNs()), maps.Clone(inc.BranchECNs())
			d, ok := inc.Extend(delta, flipped)
			cur = mergeInputs(cur, delta, flipped)
			full := Generate(cur)
			if !ok {
				inc = NewIncremental(cur, full)
				continue
			}
			requireSamePolicy(t, full, inc.TaryECNs(), inc.BranchECNs())
			for addr := range d.TaryECN {
				if _, published := tary[addr]; published {
					t.Errorf("load %d: delta republishes target %#x", k, addr)
				}
				tary[addr] = d.TaryECN[addr]
			}
			for off, ecn := range d.BranchECN {
				if old, ok := branch[off]; ok && old == ecn {
					t.Errorf("load %d: delta repeats branch %#x's unchanged ECN %d", k, off, ecn)
				}
				branch[off] = ecn
			}
			if !maps.Equal(tary, inc.TaryECNs()) || !maps.Equal(branch, inc.BranchECNs()) {
				t.Errorf("load %d: published tables plus delta differ from the memoized policy", k)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}
