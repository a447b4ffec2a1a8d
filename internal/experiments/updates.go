package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcfi/internal/id"
	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/workload"
)

// --- Update-transaction throughput: delta vs full publication ---

// UpdateRow is one variant of the dlopen-storm measurement: the same
// storm of module loads against the same base image, published either
// through the incremental delta path or through a full CFG rebuild per
// load (the pre-delta behavior, kept behind mrt.Options.ForceFullCFG).
type UpdateRow struct {
	Variant   string // "delta" or "full"
	Modules   int    // modules dlopen'ed + dlsym'ed during the storm
	Checkers  int    // concurrent host check loops racing the storm
	CodeBytes int    // base-image code size the full path scales with

	Publishes      int64 // update transactions during the storm
	DeltaPublishes int64 // of which took the incremental path
	Retries        int64 // check-transaction retries observed
	Checks         int64 // host checks completed during the storm
	WallSecs       float64
	UpdatesPerSec  float64
}

// updateModuleSrc is one storm module: a handful of functions so the
// module's own aux info is non-trivial, but small next to the base
// image — the quantity whose ratio the two variants disagree about.
// The exported functions deliberately do not call each other: a direct
// call would give upd%d_fn a published return-site class before its
// dlsym flip, and the flip would then genuinely merge that class with
// the indirect-return class — a correct but full-rebuild publication,
// which is not the path this experiment measures.
func updateModuleSrc(i int) toolchain.Source {
	return toolchain.Source{
		Name: fmt.Sprintf("upd%d", i),
		Text: fmt.Sprintf(`
long upd%d_state = %d;
long upd%d_fn(long x) { return x * upd%d_state + %d; }
long upd%d_aux(long x) { return x - %d; }
long upd%d_sum(long n) {
	long s = 0;
	for (long i = 0; i < n; i++) s += i;
	return s;
}
`, i, i+3, i, i, i, i, i, i),
	}
}

// UpdateThroughput measures update transactions per second during a
// dlopen storm — `modules` library loads (each one dlopen plus one
// dlsym address-taken flip) against a large instrumented base image,
// while `checkers` host check loops spin on known-valid (branch,
// target) pairs. It returns one row per publication strategy; the
// delta/full ratio is the headline claim (cost scales with the module,
// not the program).
func UpdateThroughput(c Config, modules, checkers int) ([]UpdateRow, error) {
	if modules <= 0 {
		modules = 24
	}
	if checkers <= 0 {
		checkers = 4
	}
	// The base image is the largest workload plus its synthetic scaling
	// module — the "program" whose size the full rebuild pays per load.
	w, _ := workload.ByName("gcc")
	img, err := buildImage(w, c, true, true)
	if err != nil {
		return nil, fmt.Errorf("base image: %w", err)
	}
	b := c.builder(true)
	objs := make([]*module.Object, modules)
	for i := 0; i < modules; i++ {
		obj, err := b.Compile(updateModuleSrc(i))
		if err != nil {
			return nil, fmt.Errorf("module %d: %w", i, err)
		}
		objs[i] = obj
	}

	var rows []UpdateRow
	for _, variant := range []struct {
		name string
		full bool
	}{{"delta", false}, {"full", true}} {
		row, err := updateStorm(img, objs, variant.name, variant.full, checkers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// updateStorm runs one variant of the dlopen storm on a fresh runtime
// and releases it.
func updateStorm(img *linker.Image, objs []*module.Object, name string, full bool, checkers int) (UpdateRow, error) {
	modules := len(objs)
	rt, err := mrt.New(img, mrt.Options{ForceFullCFG: full, ParallelCopy: true})
	if err != nil {
		return UpdateRow{}, err
	}
	defer rt.Release()
	for _, o := range objs {
		rt.RegisterLibrary(o)
	}

	// Harvest valid (branch index, target) pairs from the initial
	// policy for the checker loops: deltas never re-class a
	// published target, so these stay legal for the whole storm.
	tary, bary := rt.Tables.Snapshot()
	type pair struct{ idx, target int }
	var pairs []pair
	for i, bw := range bary {
		if !id.ID(bw).Valid() {
			continue
		}
		for wd, tw := range tary {
			if tw == bw {
				pairs = append(pairs, pair{idx: i, target: wd * 4})
				break
			}
		}
		if len(pairs) >= 16 {
			break
		}
	}
	if len(pairs) == 0 {
		return UpdateRow{}, fmt.Errorf("no valid (branch, target) pairs in the base policy")
	}

	var (
		checks atomic.Int64
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	for k := 0; k < checkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, pr := range pairs {
					rt.Tables.Check(pr.idx, pr.target)
					checks.Add(1)
				}
			}
		}()
	}

	// On a single-core box a small delta storm can finish before the
	// checker goroutines are ever scheduled; don't start the clock
	// until at least one check has landed.
	for checks.Load() == 0 {
		runtime.Gosched()
	}

	updates0, retries0 := rt.Tables.Updates(), rt.Tables.Retries()
	start := time.Now()
	for i, o := range objs {
		h, err := rt.Dlopen(o.Name)
		if err != nil {
			close(stop)
			wg.Wait()
			return UpdateRow{}, fmt.Errorf("%s dlopen %s: %w", name, o.Name, err)
		}
		if _, err := rt.Dlsym(h, fmt.Sprintf("upd%d_fn", i)); err != nil {
			close(stop)
			wg.Wait()
			return UpdateRow{}, fmt.Errorf("%s dlsym upd%d_fn: %w", name, i, err)
		}
	}
	wall := time.Since(start).Seconds()
	close(stop)
	wg.Wait()

	n := rt.Tables.Updates() - updates0
	delta, _ := rt.PublishStats()
	row := UpdateRow{
		Variant: name, Modules: modules, Checkers: checkers,
		CodeBytes: len(img.Code),
		Publishes: n, DeltaPublishes: delta,
		Retries:  rt.Tables.Retries() - retries0,
		Checks:   checks.Load(),
		WallSecs: wall,
	}
	if wall > 0 {
		row.UpdatesPerSec = float64(n) / wall
	}
	if full && delta != 0 {
		return UpdateRow{}, fmt.Errorf("ForceFullCFG storm still published %d deltas", delta)
	}
	if !full && delta < int64(modules) {
		return UpdateRow{}, fmt.Errorf("delta storm published only %d deltas for %d modules", delta, modules)
	}
	return row, nil
}
