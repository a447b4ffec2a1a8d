package main

import (
	"fmt"
	"time"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// suite is the exec-suite set-up product: one instrumented image per
// program, in workload.All order, plus the build's phase times.
type suite struct {
	progs     []workload.Workload
	work      []int
	imgs      []*linker.Image
	compileMs float64
	linkMs    float64
}

// buildSuite compiles and links every program against a libc compiled
// afresh, so each set-up rep is a cold build.
func buildSuite(r *Run, instrument bool) (*suite, error) {
	s := &suite{progs: workload.All()}
	b := toolchain.New(
		toolchain.WithInstrument(instrument),
		toolchain.WithLibcCache(toolchain.NewLibcCache()),
	)
	compile := func(f func() (*module.Object, error)) (*module.Object, error) {
		t0 := time.Now()
		obj, err := f()
		t1 := time.Now()
		r.tr.Add(0, 0, "toolchain.Compile", t0, t1)
		s.compileMs += ms(t1.Sub(t0))
		return obj, err
	}
	lc, err := compile(b.Libc)
	if err != nil {
		return nil, fmt.Errorf("libc: %w", err)
	}
	for _, w := range s.progs {
		work, ok := r.cfg.ExecSuite.Work[w.Name]
		if !ok {
			return nil, fmt.Errorf("config.json has no work for %s", w.Name)
		}
		obj, err := compile(func() (*module.Object, error) {
			return b.Compile(toolchain.Source{Name: w.Name, Text: w.SourceWithWork(work)})
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		img, err := b.Link(obj, lc)
		t1 := time.Now()
		r.tr.Add(0, 0, "toolchain.Link", t0, t1)
		s.linkMs += ms(t1.Sub(t0))
		if err != nil {
			return nil, fmt.Errorf("%s: link: %w", w.Name, err)
		}
		s.work = append(s.work, work)
		s.imgs = append(s.imgs, img)
	}
	return s, nil
}

// runImage instantiates and runs one image, returning the runtime,
// the exit code and the split of its wall time.
func runImage(img *linker.Image) (rt *mrt.Runtime, code int64, newDur, runDur time.Duration, err error) {
	t0 := time.Now()
	rt, err = mrt.New(img, mrt.Options{})
	t1 := time.Now()
	if err != nil {
		return nil, 0, t1.Sub(t0), 0, err
	}
	code, err = rt.Run(0)
	return rt, code, t1.Sub(t0), time.Since(t1), err
}

// execSuite is the exec-suite workload: a closed loop with one caller.
// Each op instantiates (mrt.New) and runs one of the twelve programs;
// every cycle runs each program once, in a seeded order, and the loop
// stops at the first cycle boundary past the deadline so every program
// weighs the same in the latency distribution.
func execSuite(r *Run) error {
	c := r.cfg.ExecSuite
	var compileMs, linkMs []float64
	s, err := timedSetup(r, c.SetupReps, func() (*suite, error) {
		s, err := buildSuite(r, true)
		if err == nil {
			compileMs = append(compileMs, s.compileMs)
			linkMs = append(linkMs, s.linkMs)
		}
		return s, err
	}, nil)
	if err != nil {
		return err
	}
	want := make([]ExpectedRun, len(s.progs))
	for i, w := range s.progs {
		e, ok := r.exp.Programs[progKey(w.Name, s.work[i])]
		if !ok {
			return fmt.Errorf("expected.json has no entry for %s", progKey(w.Name, s.work[i]))
		}
		want[i] = e
	}

	type counts struct{ instret, execs int64 }
	seen := make([]*counts, len(s.progs))
	var (
		jobMs                []float64
		tracedMs, untracedMs []float64
		instret, runNs       int64
		st                   vm.CheckStats
		op                   int64
		cycles               []cycleStats
	)
	settle()
	start := time.Now()
	deadline := start.Add(r.duration)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		tr := r.tracerFor(cycle)
		cs := cycleStats{start: time.Now()}
		for _, i := range r.rng.Perm(len(s.progs)) {
			op++
			r.attempted++
			t0 := time.Now()
			rt, code, newDur, runDur, err := runImage(s.imgs[i])
			end := time.Now()
			root := tr.Add(op, 0, "bench.job", t0, end)
			tr.Add(op, root, "mrt.New", t0, t0.Add(newDur))
			tr.Add(op, root, "vm.Run", t0.Add(newDur), t0.Add(newDur+runDur))
			name := s.progs[i].Name
			if err != nil {
				r.fail("%s: %v", name, err)
				continue
			}
			if out := rt.Output(); code != want[i].Exit || out != want[i].Output {
				r.fail("%s: exit %d output %q, want exit %d output %q", name, code, out, want[i].Exit, want[i].Output)
				continue
			}
			job := end.Sub(t0)
			jobMs = append(jobMs, ms(job))
			if tr != nil {
				tracedMs = append(tracedMs, ms(job))
			} else {
				untracedMs = append(untracedMs, ms(job))
			}
			runNs += runDur.Nanoseconds()
			n, checks := rt.Instret(), rt.CheckStats()
			instret += n
			addStats(&st, checks)
			cs.jobMs = append(cs.jobMs, ms(job))
			cs.instret += n
			cs.jobNs += job.Nanoseconds()
			if seen[i] == nil {
				seen[i] = &counts{n, checks.Execs}
				if n != want[i].Instret || checks.Execs != want[i].CheckExecs {
					r.flag("%s: instret %d check_execs %d, recorded %d and %d", name, n, checks.Execs, want[i].Instret, want[i].CheckExecs)
				}
			} else if *seen[i] != (counts{n, checks.Execs}) {
				r.flag("%s: instret %d check_execs %d differ from this run's first job (%d, %d)", name, n, checks.Execs, seen[i].instret, seen[i].execs)
			}
		}
		cs.wall = time.Since(cs.start)
		cycles = append(cycles, cs)
	}
	jobs := float64(len(jobMs))

	if !r.traced {
		// Each cycle runs the same twelve jobs, so the tail and the
		// rates are taken per cycle and reported as the median over
		// cycles: a slow spell of the machine that covers a minority
		// of the cycles does not move them, while it would fill the
		// tail of the pooled jobs.
		var p90, rate, minstr []float64
		for _, cs := range cycles {
			p90 = append(p90, quantile(cs.jobMs, 0.9))
			rate = append(rate, float64(len(cs.jobMs))/cs.wall.Seconds())
			minstr = append(minstr, ratio(float64(cs.instret), float64(cs.jobNs)/1e9)/1e6)
		}
		r.set("op_p50_ms", median(jobMs))
		r.set("op_p90_ms", median(p90))
		r.set("ops_per_s", median(rate))
		r.set("guest_minstr_per_s", median(minstr))
		return nil
	}
	r.set("toolchain.compile_ms", median(compileMs))
	r.set("toolchain.link_ms", median(linkMs))
	r.set("mrt.new_ms.p50", median(r.tr.Durations("mrt.New")))
	r.set("vm.run_ms.p50", median(r.tr.Durations("vm.Run")))
	r.set("vm.run_ms.p90", quantile(r.tr.Durations("vm.Run"), 0.9))
	r.set("vm.minstr_per_s", ratio(float64(instret), float64(runNs)/1e9)/1e6)
	setVMCounts(r, st, instret, jobs)
	measured := make([]int64, len(seen))
	for i, c := range seen {
		if c != nil {
			measured[i] = c.instret
		}
	}
	overhead, err := instretOverheadPct(r, measured)
	if err != nil {
		return err
	}
	r.set("rewrite.instret_overhead_pct", overhead)
	r.reportTrace(tracedMs, untracedMs, len(tracedMs))
	return nil
}

// cycleStats is what one exec-suite cycle measured.
type cycleStats struct {
	start          time.Time
	wall           time.Duration
	jobMs          []float64
	instret, jobNs int64
}

// instretOverheadPct is the instrumentation's instret overhead over the
// whole suite: the instrumented instret measured per program against
// one run of an uninstrumented build of each.
func instretOverheadPct(r *Run, inst []int64) (float64, error) {
	traced := r.tr
	r.tr = nil // the baseline build is not part of the traced workload
	base, err := buildSuite(r, false)
	r.tr = traced
	if err != nil {
		return 0, fmt.Errorf("baseline build: %w", err)
	}
	var sumBase, sumInst int64
	for i, img := range base.imgs {
		rt, code, _, _, err := runImage(img)
		if err != nil || code != 0 {
			return 0, fmt.Errorf("baseline %s: exit %d: %v", base.progs[i].Name, code, err)
		}
		sumBase += rt.Instret()
		sumInst += inst[i]
	}
	return ratio(float64(sumInst-sumBase), float64(sumBase)) * 100, nil
}

func addStats(acc *vm.CheckStats, s vm.CheckStats) {
	acc.Execs += s.Execs
	acc.VerdictHits += s.VerdictHits
	acc.VerdictMisses += s.VerdictMisses
	acc.ICacheFills += s.ICacheFills
	acc.JITBlockRuns += s.JITBlockRuns
}

// setVMCounts reports the VM's counters per operation.
func setVMCounts(r *Run, st vm.CheckStats, instret int64, ops float64) {
	r.set("vm.instret", ratio(float64(instret), ops))
	r.set("vm.check_execs", ratio(float64(st.Execs), ops))
	r.set("vm.verdict_hit_ratio", ratio(float64(st.VerdictHits), float64(st.VerdictHits+st.VerdictMisses)))
	r.set("vm.icache_fills", ratio(float64(st.ICacheFills), ops))
	r.set("vm.jit_block_runs", ratio(float64(st.JITBlockRuns), ops))
}
