// Package cfg implements MCFI's type-matching control-flow-graph
// generation (paper §6) and the equivalence-class construction from
// the classic CFI (paper §2), producing the ECN assignments that the
// ID tables publish.
//
// The generator consumes the merged auxiliary information of all
// currently loaded modules — function types, indirect-branch sites,
// return sites, setjmp continuations — with code offsets already
// rebased to absolute guest addresses. It is deliberately fast
// (signature-bucketed scans, a worklist and a union-find) because it
// runs inside dynamic linking (paper §8.2 reports ~150 ms for
// gcc-sized inputs).
package cfg

import (
	"slices"
	"sort"

	"mcfi/internal/module"
	"mcfi/internal/visa"
)

// Input is the merged auxiliary information of the loaded modules.
type Input struct {
	Funcs       []module.FuncInfo
	IBs         []module.IndirectBranch
	RetSites    []module.RetSite
	SetjmpConts []int
	Profile     visa.Profile
	// Annotations are inline-assembly "name : signature" records
	// (paper §6, condition C2): they declare extra functions or
	// function pointers visible only to assembly, which the generator
	// honors by treating the named function as address-taken with the
	// annotated type.
	Annotations []string
}

// Graph is the generated control-flow policy.
type Graph struct {
	// TaryECN maps a code address to its equivalence-class number (the
	// getTaryECN function of paper Fig. 3); addresses absent from the
	// map are not indirect-branch targets.
	TaryECN map[int]int
	// BranchECN maps an instrumented indirect branch (keyed by the
	// branch instruction's address) to its branch ECN (getBaryECN).
	BranchECN map[int]int
	// BranchTargets maps each instrumented branch address to its
	// resolved target set (sorted), before equivalence-class merging.
	// Used by the AIR metric, which wants per-branch target counts.
	BranchTargets map[int][]int
	// Classes is the number of target equivalence classes (the EQC
	// column of paper Table 3).
	Classes int
	// ClassMembers lists the target addresses of each class.
	ClassMembers map[int][]int
	// Stats summarizes Table 3 quantities.
	Stats Stats
}

// Stats are the Table 3 quantities for one linked program.
type Stats struct {
	IBs  int // instrumented indirect branches
	IBTs int // possible indirect-branch targets
	EQCs int // equivalence classes of target addresses
}

// union-find over target addresses.
type dsu struct{ parent map[int]int }

func newDSU() *dsu { return &dsu{parent: map[int]int{}} }

func (d *dsu) find(x int) int {
	p, ok := d.parent[x]
	if !ok {
		d.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := d.find(p)
	d.parent[x] = r
	return r
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[ra] = rb
	}
}

// Generate builds the control-flow policy for the merged modules.
func Generate(in Input) *Graph {
	g := &Graph{
		TaryECN:       map[int]int{},
		BranchECN:     map[int]int{},
		BranchTargets: map[int][]int{},
		ClassMembers:  map[int][]int{},
	}

	funcsByName := map[string]*module.FuncInfo{}
	for i := range in.Funcs {
		funcsByName[in.Funcs[i].Name] = &in.Funcs[i]
	}

	// Inline-assembly annotations add address-taken functions with
	// explicit signatures.
	annotated := parseAnnotations(in.Annotations)
	taken := indexAddrTaken(in.Funcs, annotated)
	retSitesOf, _ := returnSites(in, taken)

	// Resolve each instrumented branch's target set.
	for i := range in.IBs {
		ib := &in.IBs[i]
		var targets []int
		switch ib.Kind {
		case module.IBRet:
			targets = retSitesOf[ib.Func] // already sorted and duplicate-free
		case module.IBCall, module.IBTailJmp:
			taken.each(ib.FpSig, func(j int) { targets = append(targets, in.Funcs[j].Offset) })
			targets = dedupSorted(targets)
		case module.IBLongjmp:
			targets = dedupSorted(append(targets, in.SetjmpConts...))
		case module.IBPLT:
			if f, ok := funcsByName[ib.PLTSym]; ok {
				targets = append(targets, f.Offset)
			}
		case module.IBSwitch:
			// Statically verified; not table-checked.
			continue
		}
		g.BranchTargets[ib.Offset] = targets
	}

	// Equivalence classes: merge overlapping target sets (paper §2).
	d := newDSU()
	for _, targets := range g.BranchTargets {
		if len(targets) == 0 {
			continue
		}
		for _, t := range targets[1:] {
			d.union(targets[0], t)
		}
	}

	// Assign dense ECNs per class root, deterministically (by smallest
	// member address).
	rootMembers := map[int][]int{}
	for _, targets := range g.BranchTargets {
		for _, t := range targets {
			r := d.find(t)
			rootMembers[r] = append(rootMembers[r], t)
		}
	}
	roots := make([]int, 0, len(rootMembers))
	for r := range rootMembers {
		rootMembers[r] = dedupSorted(rootMembers[r])
		roots = append(roots, rootMembers[r][0])
	}
	sort.Ints(roots)
	ecnOf := map[int]int{} // class root -> ECN
	next := 1              // ECN 0 is never used: a zero Tary word must stay invalid
	for _, smallest := range roots {
		r := d.find(smallest)
		if _, ok := ecnOf[r]; !ok {
			ecnOf[r] = next
			g.ClassMembers[next] = rootMembers[r]
			next++
		}
	}
	g.Classes = next - 1

	for addr := range d.parent {
		g.TaryECN[addr] = ecnOf[d.find(addr)]
	}
	nIBs := 0
	for i := range in.IBs {
		ib := &in.IBs[i]
		if ib.Kind == module.IBSwitch {
			continue
		}
		nIBs++
		targets := g.BranchTargets[ib.Offset]
		if len(targets) == 0 {
			// No legal target: give the branch a class of its own so
			// every transfer violates (ECN with no members).
			g.BranchECN[ib.Offset] = next
			next++
			continue
		}
		g.BranchECN[ib.Offset] = ecnOf[d.find(targets[0])]
	}

	g.Stats = Stats{IBs: nIBs, IBTs: len(g.TaryECN), EQCs: g.Classes}
	return g
}

// sigIndex buckets the address-taken functions by effective signature
// (an annotation's, else the function's own), so resolving a
// function-pointer signature costs one SigCallMatch per distinct
// signature rather than one per function.
type sigIndex map[string][]int // effective signature -> indexes into funcs

// effSig is f's signature as the policy sees it: an inline-assembly
// annotation's, when one names f with a signature, else f's own.
func effSig(f *module.FuncInfo, annotated map[string]string) string {
	if s, ok := annotated[f.Name]; ok && s != "" {
		return s
	}
	return f.Sig
}

// effAddrTaken reports whether f is an indirect-branch target: its
// address is taken, or an annotation declares it.
func effAddrTaken(f *module.FuncInfo, annotated map[string]string) bool {
	if f.AddrTaken {
		return true
	}
	_, ok := annotated[f.Name]
	return ok
}

func indexAddrTaken(funcs []module.FuncInfo, annotated map[string]string) sigIndex {
	x := sigIndex{}
	for i := range funcs {
		if effAddrTaken(&funcs[i], annotated) {
			sig := effSig(&funcs[i], annotated)
			x[sig] = append(x[sig], i)
		}
	}
	return x
}

// each calls fn with the index of every function a pointer of type
// fpSig may target.
func (x sigIndex) each(fpSig string, fn func(i int)) {
	for sig, is := range x {
		if SigCallMatch(fpSig, sig) {
			for _, i := range is {
				fn(i)
			}
		}
	}
}

// returnSites computes the return edges (paper §6): retSitesOf[f] is
// the sorted, duplicate-free set of return sites a return in f may
// target. It starts from the call graph and then chases tail calls
// ("if in function f there is a call node calling g, and g calls h
// through a series of tail calls, then an edge from the call node in f
// to h is added"). It also returns the tail-call edges g -> h (g
// tail-calls h), indirect ones resolved against taken.
func returnSites(in Input, taken sigIndex) (retSitesOf map[string][]int, edges map[string][]string) {
	retSitesOf = map[string][]int{}
	for _, rs := range in.RetSites {
		if rs.Callee != "" {
			retSitesOf[rs.Callee] = append(retSitesOf[rs.Callee], rs.Offset)
			continue
		}
		// Indirect call: any type-matched address-taken function.
		taken.each(rs.FpSig, func(i int) {
			name := in.Funcs[i].Name
			retSitesOf[name] = append(retSitesOf[name], rs.Offset)
		})
	}
	pending := make(map[string][]int, len(retSitesOf))
	for name, sites := range retSitesOf {
		retSitesOf[name] = dedupSorted(sites)
		pending[name] = slices.Clip(retSitesOf[name])
	}
	edges = map[string][]string{}
	for i := range in.Funcs {
		g := &in.Funcs[i]
		edges[g.Name] = append(edges[g.Name], g.TailCalls...)
		for _, sig := range g.TailSigs {
			taken.each(sig, func(j int) { edges[g.Name] = append(edges[g.Name], in.Funcs[j].Name) })
		}
	}
	if in.Profile == visa.Profile64 {
		propagateTailCalls(edges, retSitesOf, pending, nil)
	}
	return retSitesOf, edges
}

// propagateTailCalls is the one return-site propagation along tail-call
// edges, a semi-naive worklist. pending[g] holds the sites of ret(g)
// that g's tail callees may still lack; every edge g -> h satisfies
// ret(g) ⊆ ret(h) apart from those. Only pending sites travel, so each
// site crosses each edge at most once, and on return pending is empty
// and every edge satisfies the inclusion. When grew is non-nil, every
// site added to a set is merged into grew[h] too (the incremental path
// turns these into new return-branch targets). Sets stay sorted and
// duplicate-free.
func propagateTailCalls(edges map[string][]string, retSitesOf, pending, grew map[string][]int) {
	queue := make([]string, 0, len(pending))
	for name := range pending {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sites := pending[g]
		delete(pending, g)
		for _, h := range edges[g] {
			added := addSites(retSitesOf, h, sites)
			if len(added) == 0 {
				continue
			}
			if grew != nil {
				grew[h], _ = mergeSorted(grew[h], added)
			}
			if p, queued := pending[h]; queued {
				pending[h], _ = mergeSorted(p, added)
			} else {
				pending[h] = added
				queue = append(queue, h)
			}
		}
	}
}

// addSites merges sites into retSitesOf[name] and returns the ones it
// lacked.
func addSites(retSitesOf map[string][]int, name string, sites []int) []int {
	merged, added := mergeSorted(retSitesOf[name], sites)
	if len(added) > 0 {
		retSitesOf[name] = merged
	}
	return added
}

// mergeSorted merges the sorted, duplicate-free add into the sorted,
// duplicate-free set, testing membership by binary search. added is a
// fresh slice of the members set lacked. When they all sort after
// set's last member — a module loaded above everything before it —
// merged is set with added appended in place, so the caller must own
// set's backing array beyond its length (slices.Clip a set before
// sharing it).
func mergeSorted(set, add []int) (merged, added []int) {
	for _, x := range add {
		if _, found := slices.BinarySearch(set, x); !found {
			added = append(added, x)
		}
	}
	if len(added) == 0 {
		return set, nil
	}
	if len(set) == 0 || added[0] > set[len(set)-1] {
		return append(set, added...), slices.Clip(added)
	}
	merged = make([]int, 0, len(set)+len(added))
	i, j := 0, 0
	for i < len(set) && j < len(added) {
		if set[i] < added[j] {
			merged = append(merged, set[i])
			i++
		} else {
			merged = append(merged, added[j])
			j++
		}
	}
	merged = append(append(merged, set[i:]...), added[j:]...)
	return merged, slices.Clip(added)
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
