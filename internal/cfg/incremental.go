// Incremental CFG maintenance for dynamic linking: instead of
// regenerating the whole control-flow policy on every dlopen (the
// paper reports full generation at ~150 ms for gcc-sized inputs, paid
// per module load), the runtime keeps the union-find state of the last
// published policy memoized and merges each new module's functions,
// branches, and return sites into it, reporting only the addresses and
// branches whose equivalence-class numbers are new or changed.
//
// Extend does work in proportion to what a load adds, not to the
// program it loads into. Tail-call chasing is a worklist seeded with
// only the return sites this load added and the sources of its new
// tail edges; every set is kept sorted, so membership is a binary
// search and an addition above the last member (a module loaded past
// everything before it) is an in-place append; a branch merges only
// the targets it lacks, so only those are unioned and only those can
// be unpublished; and signature matching goes through buckets of
// address-taken functions and branches by signature. Its cost is
// O(added facts × log set size + distinct signatures), where the added
// facts are the new (function, return site) and (branch, target)
// pairs; the full Generate it replaces is O(program) per load.
//
// The incremental path preserves every published ECN: a new target
// joining an existing class adopts that class's number, and brand-new
// classes take numbers the published tables have never used. When an
// extension would merge two classes that both already have distinct
// published numbers — real cross-module class unification, where
// existing Tary words would have to move — Extend reports failure and
// the caller falls back to a full Generate + full table rebuild. That
// invariant (existing words never change class in a delta) is exactly
// what makes the tables' version-neutral UpdateDelta publication safe.
package cfg

import (
	"slices"
	"sort"

	"mcfi/internal/id"
	"mcfi/internal/module"
	"mcfi/internal/visa"
)

// Delta is the policy change one Extend produced: the equivalence-class
// assignments for addresses that became valid targets, and the branch
// ECNs that are new or changed. Existing target addresses never appear
// (their classes are immutable under the incremental path).
type Delta struct {
	// TaryECN maps newly valid target addresses to their ECNs. It can
	// include old-extent addresses: a pre-existing function newly made
	// address-taken, or a pre-existing return site that a new module's
	// call graph reaches.
	TaryECN map[int]int
	// BranchECN maps branch addresses to their ECNs, for branches that
	// are new or whose class changed (an empty-target branch gaining
	// its first targets).
	BranchECN map[int]int
}

// Incremental is the memoized CFG-generation state of the currently
// published policy. It is not safe for concurrent use; the runtime
// serializes Extend with its link lock.
type Incremental struct {
	profile     visa.Profile
	funcs       []module.FuncInfo
	funcIdx     map[string]int // name -> index into funcs
	annotated   map[string]string
	setjmpConts []int

	// Union-find over target addresses plus the published numbering.
	d       *dsu
	ecnOf   map[int]int // class root -> published ECN
	next    int         // next never-published ECN
	taryECN map[int]int // published target map (mirror of the tables)

	// Return edges. Each set is sorted and duplicate-free, and on the
	// 64-bit profile every tail edge g -> h satisfies ret(g) ⊆ ret(h)
	// at every publish.
	retSitesOf map[string][]int
	tailEdges  map[string][]string // g -> tail callees

	// Each target set is sorted and owns its backing array beyond its
	// length, so Extend can append to it in place.
	branchTargets map[int][]int
	branchECN     map[int]int

	// Secondary indexes so Extend matches a delta against the program
	// in O(delta × distinct signatures), not O(program²).
	callIBsBySig   map[string][]int    // fp sig -> IBCall/IBTailJmp offsets
	retIBsByFunc   map[string][]int    // func name -> IBRet offsets
	longjmpIBs     []int               // IBLongjmp offsets
	pltIBsBySym    map[string][]int    // symbol -> IBPLT offsets
	indRetBySig    map[string][]int    // fp sig -> sorted indirect ret-site offsets
	tailSigCallers map[string][]string // fp sig -> funcs tail-calling through it
	taken          sigIndex            // address-taken funcs by effective sig
}

// NewIncremental memoizes the generation state behind an already
// generated policy. g must be Generate(in) for the same input; the
// returned state reproduces g's exact ECN numbering, which is the
// numbering the caller published to the ID tables.
func NewIncremental(in Input, g *Graph) *Incremental {
	inc := &Incremental{
		profile:        in.Profile,
		funcs:          append([]module.FuncInfo(nil), in.Funcs...),
		funcIdx:        make(map[string]int, len(in.Funcs)),
		annotated:      parseAnnotations(in.Annotations),
		setjmpConts:    append([]int(nil), in.SetjmpConts...),
		d:              newDSU(),
		ecnOf:          map[int]int{},
		next:           1,
		taryECN:        make(map[int]int, len(g.TaryECN)),
		branchTargets:  make(map[int][]int, len(g.BranchTargets)),
		branchECN:      make(map[int]int, len(g.BranchECN)),
		callIBsBySig:   map[string][]int{},
		retIBsByFunc:   map[string][]int{},
		pltIBsBySym:    map[string][]int{},
		indRetBySig:    map[string][]int{},
		tailSigCallers: map[string][]string{},
	}
	for i := range inc.funcs {
		inc.funcIdx[inc.funcs[i].Name] = i
	}

	// Rebuild the union-find and the root -> ECN map from the published
	// classes, and continue numbering past every ECN the graph used
	// (including the memberless classes of empty-target branches).
	for ecn, members := range g.ClassMembers {
		for _, m := range members[1:] {
			inc.d.union(members[0], m)
		}
		inc.ecnOf[inc.d.find(members[0])] = ecn
		if ecn >= inc.next {
			inc.next = ecn + 1
		}
	}
	for addr, ecn := range g.TaryECN {
		inc.taryECN[addr] = ecn
	}
	for off, ecn := range g.BranchECN {
		inc.branchECN[off] = ecn
		if ecn >= inc.next {
			inc.next = ecn + 1
		}
	}
	for off, targets := range g.BranchTargets {
		// Generate shares one slice among a function's return branches;
		// clipping makes the first in-place append copy it.
		inc.branchTargets[off] = slices.Clip(targets)
	}

	// Recompute the return edges the same way Generate did (the graph
	// does not retain them).
	inc.taken = indexAddrTaken(inc.funcs, inc.annotated)
	inc.retSitesOf, inc.tailEdges = returnSites(in, inc.taken)

	// Secondary indexes over the existing branches and functions.
	for _, rs := range in.RetSites {
		if rs.Callee == "" {
			inc.indRetBySig[rs.FpSig] = append(inc.indRetBySig[rs.FpSig], rs.Offset)
		}
	}
	for sig, sites := range inc.indRetBySig {
		inc.indRetBySig[sig] = dedupSorted(sites)
	}
	for i := range in.IBs {
		ib := &in.IBs[i]
		switch ib.Kind {
		case module.IBRet:
			inc.retIBsByFunc[ib.Func] = append(inc.retIBsByFunc[ib.Func], ib.Offset)
		case module.IBCall, module.IBTailJmp:
			inc.callIBsBySig[ib.FpSig] = append(inc.callIBsBySig[ib.FpSig], ib.Offset)
		case module.IBLongjmp:
			inc.longjmpIBs = append(inc.longjmpIBs, ib.Offset)
		case module.IBPLT:
			inc.pltIBsBySym[ib.PLTSym] = append(inc.pltIBsBySym[ib.PLTSym], ib.Offset)
		}
	}
	for i := range inc.funcs {
		for _, sig := range inc.funcs[i].TailSigs {
			inc.tailSigCallers[sig] = append(inc.tailSigCallers[sig], inc.funcs[i].Name)
		}
	}
	return inc
}

// unionChecked unions two target addresses while keeping the published
// numbering intact. It fails (returning false) when both roots already
// carry distinct published ECNs — the cross-module class merge the
// incremental path cannot express without moving existing table words.
func (inc *Incremental) unionChecked(a, b int) bool {
	ra, rb := inc.d.find(a), inc.d.find(b)
	if ra == rb {
		return true
	}
	ea, okA := inc.ecnOf[ra]
	eb, okB := inc.ecnOf[rb]
	if okA && okB && ea != eb {
		return false
	}
	inc.d.parent[ra] = rb
	if okA {
		delete(inc.ecnOf, ra)
		inc.ecnOf[rb] = ea
	} else if okB {
		inc.ecnOf[rb] = eb
	}
	return true
}

// Extend merges one module's auxiliary information into the memoized
// state and returns the policy delta to publish. flipped names
// pre-existing functions that just became address-taken (dlsym, or a
// data relocation in the new module referring to an old function).
//
// The second return is false when the delta cannot be expressed
// incrementally — cross-module class merges, an annotation retyping an
// existing function, a duplicate function name, or ECN exhaustion —
// and the caller must regenerate the full policy (and a fresh
// Incremental: the state may be partially mutated and must be
// discarded either way).
func (inc *Incremental) Extend(delta Input, flipped []string) (*Delta, bool) {
	if delta.Profile != inc.profile {
		return nil, false
	}
	// New annotations may only describe new functions: retyping or
	// address-taking an already-published function via assembly text
	// would change existing classes.
	newAnn := parseAnnotations(delta.Annotations)
	for name, sig := range newAnn {
		if _, exists := inc.funcIdx[name]; exists {
			return nil, false
		}
		inc.annotated[name] = sig
	}

	// Phase A: apply structural additions and collect, per branch, the
	// target addresses it may gain, and per function, the return sites
	// its set gained.
	adds := map[int][]int{}    // branch offset -> candidate targets
	grew := map[string][]int{} // func name -> sites added to its set
	grow := func(name string, sites []int) {
		if added := addSites(inc.retSitesOf, name, sites); len(added) > 0 {
			grew[name], _ = mergeSorted(grew[name], added)
		}
	}
	var activated []int // indexes of funcs that became targets

	for _, name := range flipped {
		i, ok := inc.funcIdx[name]
		if !ok {
			continue
		}
		f := &inc.funcs[i]
		if effAddrTaken(f, inc.annotated) {
			continue // already a target; nothing changes
		}
		f.AddrTaken = true
		activated = append(activated, i)
	}

	firstNew := len(inc.funcs)
	for _, f := range delta.Funcs {
		if _, dup := inc.funcIdx[f.Name]; dup {
			return nil, false
		}
		inc.funcIdx[f.Name] = len(inc.funcs)
		inc.funcs = append(inc.funcs, f)
	}
	for i := firstNew; i < len(inc.funcs); i++ {
		f := &inc.funcs[i]
		if effAddrTaken(f, inc.annotated) {
			activated = append(activated, i)
		}
		// A new definition of a symbol old PLT branches import.
		for _, off := range inc.pltIBsBySym[f.Name] {
			adds[off] = append(adds[off], f.Offset)
		}
	}

	// Newly activated targets join every signature-matched indirect
	// call, indirect return edge, and existing indirect tail-call edge.
	// A new tail edge g -> h must carry all of ret(g), not only what
	// grew; it is pushed once the module's return sites are in.
	type edge struct{ g, h string }
	var newEdges []edge
	for _, i := range activated {
		f := &inc.funcs[i]
		fsig := effSig(f, inc.annotated)
		inc.taken[fsig] = append(inc.taken[fsig], i)
		for fpSig, offs := range inc.callIBsBySig {
			if SigCallMatch(fpSig, fsig) {
				for _, off := range offs {
					adds[off] = append(adds[off], f.Offset)
				}
			}
		}
		for fpSig, sites := range inc.indRetBySig {
			if SigCallMatch(fpSig, fsig) {
				grow(f.Name, sites)
			}
		}
		for sig, callers := range inc.tailSigCallers {
			if SigCallMatch(sig, fsig) {
				for _, g := range callers {
					inc.tailEdges[g] = append(inc.tailEdges[g], f.Name)
					newEdges = append(newEdges, edge{g, f.Name})
				}
			}
		}
	}

	// The new functions as tail callers: direct edges plus indirect
	// edges to every address-taken function, the activated ones
	// included.
	for i := firstNew; i < len(inc.funcs); i++ {
		f := &inc.funcs[i]
		callees := append([]string(nil), f.TailCalls...)
		for _, sig := range f.TailSigs {
			inc.tailSigCallers[sig] = append(inc.tailSigCallers[sig], f.Name)
			inc.taken.each(sig, func(j int) { callees = append(callees, inc.funcs[j].Name) })
		}
		inc.tailEdges[f.Name] = callees
		for _, h := range callees {
			newEdges = append(newEdges, edge{f.Name, h})
		}
	}

	// The module's return sites: direct ones extend the callee's set by
	// name (the callee may be an old function — a call into libc — or
	// one of the module's own); indirect ones match every current
	// address-taken function.
	for _, rs := range delta.RetSites {
		site := []int{rs.Offset}
		if rs.Callee != "" {
			grow(rs.Callee, site)
			continue
		}
		inc.indRetBySig[rs.FpSig], _ = mergeSorted(inc.indRetBySig[rs.FpSig], site)
		inc.taken.each(rs.FpSig, func(j int) { grow(inc.funcs[j].Name, site) })
	}

	// New setjmp continuations become targets of every longjmp branch.
	if len(delta.SetjmpConts) > 0 {
		inc.setjmpConts = append(inc.setjmpConts, delta.SetjmpConts...)
		for _, off := range inc.longjmpIBs {
			adds[off] = append(adds[off], delta.SetjmpConts...)
		}
	}

	// Tail-call chasing, seeded with only what changed: each new edge
	// pushes its source's whole set once (a late-defined PLT callee can
	// arrive with return sites already recorded), and every site a set
	// gained travels on along the old edges.
	if inc.profile == visa.Profile64 {
		for _, e := range newEdges {
			grow(e.h, inc.retSitesOf[e.g])
		}
		pending := make(map[string][]int, len(grew))
		for name, sites := range grew {
			pending[name] = slices.Clip(sites)
		}
		propagateTailCalls(inc.tailEdges, inc.retSitesOf, pending, grew)
	}
	// An old return branch's targets are its function's set as last
	// published, so it gains exactly what the set gained.
	for name, sites := range grew {
		for _, off := range inc.retIBsByFunc[name] {
			adds[off] = append(adds[off], sites...)
		}
	}

	// The module's own branches, resolved against the merged state, and
	// folded into the indexes for the next Extend.
	for i := range delta.IBs {
		ib := &delta.IBs[i]
		switch ib.Kind {
		case module.IBRet:
			inc.retIBsByFunc[ib.Func] = append(inc.retIBsByFunc[ib.Func], ib.Offset)
			adds[ib.Offset] = append(adds[ib.Offset], inc.retSitesOf[ib.Func]...)
		case module.IBCall, module.IBTailJmp:
			inc.callIBsBySig[ib.FpSig] = append(inc.callIBsBySig[ib.FpSig], ib.Offset)
			inc.taken.each(ib.FpSig, func(j int) { adds[ib.Offset] = append(adds[ib.Offset], inc.funcs[j].Offset) })
		case module.IBLongjmp:
			inc.longjmpIBs = append(inc.longjmpIBs, ib.Offset)
			adds[ib.Offset] = append(adds[ib.Offset], inc.setjmpConts...)
		case module.IBPLT:
			inc.pltIBsBySym[ib.PLTSym] = append(inc.pltIBsBySym[ib.PLTSym], ib.Offset)
			if j, ok := inc.funcIdx[ib.PLTSym]; ok {
				adds[ib.Offset] = append(adds[ib.Offset], inc.funcs[j].Offset)
			}
		case module.IBSwitch:
			continue
		}
		if _, seen := adds[ib.Offset]; !seen {
			adds[ib.Offset] = []int{} // empty-target branch, still needs an ECN
		}
	}

	// Phase B: merge only the targets a branch lacks. Its old targets
	// already share one class, so each new one is unioned with an old
	// member (or, for a branch that had none, with its first new one);
	// failure means two published classes would merge.
	touched := make([]int, 0, len(adds))
	for off := range adds {
		touched = append(touched, off)
	}
	sort.Ints(touched)
	changedBranches := make([]int, 0, len(touched))
	var newTargets []int
	for _, off := range touched {
		old, existed := inc.branchTargets[off]
		merged, added := mergeSorted(old, dedupSorted(adds[off]))
		if existed && len(added) == 0 {
			continue // no new targets (duplicates only)
		}
		inc.branchTargets[off] = merged
		changedBranches = append(changedBranches, off)
		if len(added) == 0 {
			continue // brand-new empty-target branch
		}
		anchor := added[0]
		if len(old) > 0 {
			anchor = old[0]
		}
		for _, t := range added {
			if !inc.unionChecked(anchor, t) {
				return nil, false
			}
		}
		newTargets = append(newTargets, added...)
	}

	// Phase C: number the classes. Every old target is published, so
	// the delta is among the new targets: those absent from the
	// published Tary map. Roots without an ECN get fresh numbers,
	// deterministically by smallest member.
	newAddrs := map[int][]int{} // root -> new member addresses
	for _, t := range newTargets {
		if _, published := inc.taryECN[t]; !published {
			r := inc.d.find(t)
			newAddrs[r] = append(newAddrs[r], t)
		}
	}
	type newClass struct {
		root     int
		smallest int
	}
	var fresh []newClass
	for r, members := range newAddrs {
		newAddrs[r] = dedupSorted(members)
		if _, ok := inc.ecnOf[r]; !ok {
			fresh = append(fresh, newClass{root: r, smallest: newAddrs[r][0]})
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].smallest < fresh[j].smallest })
	for _, nc := range fresh {
		if inc.next >= id.MaxECN {
			return nil, false
		}
		inc.ecnOf[nc.root] = inc.next
		inc.next++
	}

	out := &Delta{TaryECN: map[int]int{}, BranchECN: map[int]int{}}
	for r, members := range newAddrs {
		ecn := inc.ecnOf[r]
		for _, t := range members {
			inc.taryECN[t] = ecn
			out.TaryECN[t] = ecn
		}
	}

	// Phase D: branch numbering. Branches whose sets changed adopt
	// their class's ECN; empty-target branches get a memberless
	// singleton each, like Generate.
	for _, off := range changedBranches {
		targets := inc.branchTargets[off]
		var ecn int
		if len(targets) == 0 {
			if old, ok := inc.branchECN[off]; ok {
				ecn = old // keep the published singleton
			} else {
				if inc.next >= id.MaxECN {
					return nil, false
				}
				ecn = inc.next
				inc.next++
			}
		} else {
			ecn = inc.ecnOf[inc.d.find(targets[0])]
		}
		if old, ok := inc.branchECN[off]; !ok || old != ecn {
			inc.branchECN[off] = ecn
			out.BranchECN[off] = ecn
		}
	}
	return out, true
}

// BranchECNs returns the full published branch numbering (branch
// address -> ECN). The runtime uses it to rebuild its Bary image after
// a fallback regeneration check.
func (inc *Incremental) BranchECNs() map[int]int { return inc.branchECN }

// TaryECNs returns the full published target numbering.
func (inc *Incremental) TaryECNs() map[int]int { return inc.taryECN }
