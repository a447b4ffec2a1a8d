package main

import (
	"errors"
	"fmt"
	"time"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// storm is the update-storm set-up product: the base image and the
// precompiled plugins with the symbol each load resolves.
type storm struct {
	img       *linker.Image
	plugins   []*module.Object
	syms      []string
	compileMs float64
	linkMs    float64
}

// buildStorm cold-builds the base image (the guest program linked with
// the scaling module that gives it Table-3 size) and compiles the
// seed's plugins.
func buildStorm(r *Run) (*storm, error) {
	c := r.cfg.UpdateStorm
	guest, ok := workload.ByName(c.Guest)
	scaled, ok2 := workload.ByName(c.Scaling)
	if !ok || !ok2 {
		return nil, fmt.Errorf("config.json names unknown programs %q, %q", c.Guest, c.Scaling)
	}
	p := scaled.Gen
	p.Funcs = int(float64(p.Funcs) * c.GenScale)
	p.FPTypes = max(1, int(float64(p.FPTypes)*c.GenScale))
	p.Callers = int(float64(p.Callers) * c.GenScale)
	p.Switches = int(float64(p.Switches) * c.GenScale)
	srcs := []toolchain.Source{
		{Name: guest.Name, Text: guest.SourceWithWork(c.GuestWork)},
		workload.GenerateModule(scaled.Name, c.GenSeed, p),
	}

	s := &storm{}
	b := toolchain.New(toolchain.WithInstrumentation(), toolchain.WithLibcCache(toolchain.NewLibcCache()))
	compile := func(src toolchain.Source) (*module.Object, error) {
		t0 := time.Now()
		obj, err := b.Compile(src)
		t1 := time.Now()
		r.tr.Add(0, 0, "toolchain.Compile", t0, t1)
		s.compileMs += ms(t1.Sub(t0))
		return obj, err
	}
	objs := make([]*module.Object, 0, len(srcs)+1)
	for _, src := range srcs {
		obj, err := compile(src)
		if err != nil {
			return nil, err
		}
		objs = append(objs, obj)
	}
	t0 := time.Now()
	lc, err := b.Libc()
	t1 := time.Now()
	r.tr.Add(0, 0, "toolchain.Compile", t0, t1)
	s.compileMs += ms(t1.Sub(t0))
	if err != nil {
		return nil, fmt.Errorf("libc: %w", err)
	}
	t0 = time.Now()
	s.img, err = b.Link(append(objs, lc)...)
	t1 = time.Now()
	r.tr.Add(0, 0, "toolchain.Link", t0, t1)
	s.linkMs += ms(t1.Sub(t0))
	if err != nil {
		return nil, fmt.Errorf("base image: %w", err)
	}
	for i := 0; i < c.Plugins; i++ {
		src, sym := pluginSource(r.seed, i)
		obj, err := compile(src)
		if err != nil {
			return nil, err
		}
		s.plugins = append(s.plugins, obj)
		s.syms = append(s.syms, sym)
	}
	return s, nil
}

// load is one timed Dlopen + Dlsym.
type load struct {
	latMs, lagMs, dlopenMs, dlsymMs float64
}

// round is what one runtime saw over its storm.
type round struct {
	loads            []load
	wall             time.Duration // guest start to the last load's end
	guestInstret     int64
	delta, full      int64
	updates, retries int64
	stats            vm.CheckStats
	newMs            float64
}

// stormRound starts a fresh runtime (outside the timing), runs its
// guest on its own thread, and loads every plugin on the open-loop
// schedule, each load timed from when it was due.
func stormRound(r *Run, s *storm, tr *Tracer, op *int64) (*round, error) {
	interval := time.Second / time.Duration(r.cfg.UpdateStorm.Hz)
	rd := &round{}
	t0 := time.Now()
	rt, err := mrt.New(s.img, mrt.Options{})
	t1 := time.Now()
	rd.newMs = ms(t1.Sub(t0))
	tr.Add(0, 0, "mrt.New", t0, t1)
	if err != nil {
		return nil, err
	}
	for _, p := range s.plugins {
		rt.RegisterLibrary(p)
	}

	guestDone := make(chan error, 1)
	guestStart := time.Now()
	go func() {
		_, err := rt.Run(0)
		guestDone <- err
	}()
	first := guestStart.Add(interval)
	var prevDelta int64
	for i, p := range s.plugins {
		*op++
		r.attempted++
		due := first.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		a := time.Now()
		h, errOpen := rt.Dlopen(p.Name)
		b := time.Now()
		var addr int64
		errSym := errOpen
		if errOpen == nil {
			addr, errSym = rt.Dlsym(h, s.syms[i])
		}
		c := time.Now()
		root := tr.Add(*op, 0, "bench.load", due, c)
		tr.Add(*op, root, "mrt.Dlopen", a, b)
		tr.Add(*op, root, "mrt.Dlsym", b, c)
		delta, _ := rt.PublishStats()
		published := delta - prevDelta
		prevDelta = delta
		switch {
		case errOpen != nil || errSym != nil:
			r.fail("dlopen/dlsym %s: %v", p.Name, errors.Join(errOpen, errSym))
			continue
		case addr == 0:
			r.fail("dlsym %s: null address", s.syms[i])
			continue
		case published != 2:
			r.fail("load %s published %d deltas, want 2 (dlopen and dlsym)", p.Name, published)
			continue
		}
		rd.loads = append(rd.loads, load{
			latMs: ms(c.Sub(due)), lagMs: ms(a.Sub(due)),
			dlopenMs: ms(b.Sub(a)), dlsymMs: ms(c.Sub(b)),
		})
	}
	rd.wall = time.Since(guestStart)
	rd.guestInstret = rt.Instret()
	rt.Cancel()
	gerr := <-guestDone
	switch {
	case gerr == nil:
		r.problem("guest exited before its round ended; raise guest_work")
	case !errors.Is(gerr, vm.ErrCancelled):
		r.problem("guest: %v", gerr)
	}
	rd.delta, rd.full = rt.PublishStats()
	rd.updates, rd.retries = rt.Tables.Updates(), rt.Tables.Retries()
	rd.stats = rt.CheckStats()
	return rd, nil
}

// updateStorm is the update-storm workload: an open loop at Hz loads
// per second into a running check-heavy guest. Each runtime takes
// plugins_per_runtime loads, so late loads see a large loaded program;
// the loop stops at the first runtime boundary past the deadline.
func updateStorm(r *Run) error {
	c := r.cfg.UpdateStorm
	var compileMs, linkMs []float64
	s, err := timedSetup(r, c.SetupReps, func() (*storm, error) {
		s, err := buildStorm(r)
		if err == nil {
			compileMs = append(compileMs, s.compileMs)
			linkMs = append(linkMs, s.linkMs)
		}
		return s, err
	}, nil)
	if err != nil {
		return err
	}

	var (
		rounds               []*round
		op                   int64
		tracedMs, untracedMs []float64
	)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.duration; k++ {
		settle()
		tr := r.tracerFor(k)
		rd, err := stormRound(r, s, tr, &op)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
		for _, l := range rd.loads {
			if tr != nil {
				tracedMs = append(tracedMs, l.latMs)
			} else {
				untracedMs = append(untracedMs, l.latMs)
			}
		}
	}

	var (
		latMs, lagMs, openMs, symMs, q1, q4, newMs []float64
		wall                                       time.Duration
		guestInstret                               int64
		st                                         vm.CheckStats
		updates, retries                           int64
	)
	for _, rd := range rounds {
		n := len(rd.loads)
		for i, l := range rd.loads {
			latMs = append(latMs, l.latMs)
			lagMs = append(lagMs, l.lagMs)
			openMs = append(openMs, l.dlopenMs)
			symMs = append(symMs, l.dlsymMs)
			switch {
			case i < n/4:
				q1 = append(q1, l.dlopenMs)
			case i >= n-n/4:
				q4 = append(q4, l.dlopenMs)
			}
		}
		newMs = append(newMs, rd.newMs)
		wall += rd.wall
		guestInstret += rd.guestInstret
		addStats(&st, rd.stats)
		updates += rd.updates
		retries += rd.retries
	}
	nr := float64(len(rounds))

	if !r.traced {
		// Each runtime takes the same loads, so the tail and the rates
		// are taken per runtime and reported as the median over
		// runtimes: a slow spell of the machine that covers a minority
		// of them does not move them, while it would fill the tail of
		// the pooled loads.
		var p90, rate, minstr []float64
		for _, rd := range rounds {
			lat := make([]float64, len(rd.loads))
			for i, l := range rd.loads {
				lat[i] = l.latMs
			}
			p90 = append(p90, quantile(lat, 0.9))
			rate = append(rate, float64(len(lat))/rd.wall.Seconds())
			minstr = append(minstr, float64(rd.guestInstret)/rd.wall.Seconds()/1e6)
		}
		r.set("op_p50_ms", median(latMs))
		r.set("op_p90_ms", median(p90))
		r.set("ops_per_s", median(rate))
		r.set("guest_minstr_per_s", median(minstr))
		return nil
	}
	r.set("toolchain.compile_ms", median(compileMs))
	r.set("toolchain.link_ms", median(linkMs))
	r.set("mrt.new_ms.p50", median(newMs))
	r.set("mrt.dlopen_ms.p50", median(openMs))
	r.set("mrt.dlopen_ms.p90", quantile(openMs, 0.9))
	r.set("mrt.dlsym_ms.p50", median(symMs))
	r.set("mrt.dlsym_ms.p90", quantile(symMs, 0.9))
	r.set("mrt.dlopen_ms.q1_p50", median(q1))
	r.set("mrt.dlopen_ms.q4_p50", median(q4))
	r.set("mrt.delta_publishes", float64(rounds[0].delta))
	r.set("mrt.full_publishes", float64(rounds[0].full))
	r.set("tables.updates", float64(updates)/nr)
	r.set("tables.retries_per_update", ratio(float64(retries), float64(updates)))
	r.set("update.lag_ms.p90", quantile(lagMs, 0.9))
	r.set("vm.minstr_per_s", float64(guestInstret)/wall.Seconds()/1e6)
	setVMCounts(r, st, guestInstret, nr)
	r.reportTrace(tracedMs, untracedMs, len(tracedMs))
	return nil
}
