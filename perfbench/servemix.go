package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mcfi/internal/server"
	"mcfi/internal/toolchain"
	"mcfi/internal/workload"
)

// mixServer is one in-process server on loopback plus its clients'
// shared HTTP transport.
type mixServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startMixServer starts a server with every setting at its mcfi-serve
// default except the worker count, and cold-builds the warm images
// (fresh libc cache) into its mem tier under the fingerprints the
// server computes for the warm requests.
func startMixServer(r *Run) (*mixServer, error) {
	c := r.cfg.ServeMix
	srv, err := server.New(server.Config{Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	m := &mixServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/run",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c.Clients}},
	}
	go func() { m.served <- m.hs.Serve(ln) }()
	b := toolchain.New(
		toolchain.WithInstrumentation(),
		toolchain.WithLibcCache(toolchain.NewLibcCache()),
		toolchain.WithStore(srv.Store()),
	)
	for _, name := range c.Warm {
		w, ok := workload.ByName(name)
		if !ok {
			m.stop()
			return nil, fmt.Errorf("config.json names unknown program %q", name)
		}
		// Work 0 is what a request naming only the workload builds.
		if _, err := b.Build(toolchain.Source{Name: w.Name, Text: w.SourceWithWork(0)}); err != nil {
			m.stop()
			return nil, fmt.Errorf("warming %s: %w", name, err)
		}
	}
	return m, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (m *mixServer) stop() {
	ctx := context.Background()
	m.hs.Shutdown(ctx)
	<-m.served
	m.client.CloseIdleConnections()
	m.srv.Drain(ctx)
}

// post sends one job and decodes its result.
func (m *mixServer) post(req server.JobRequest) (*server.JobResult, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := m.client.Post(m.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(data))
	}
	var res server.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, resp.StatusCode, err
	}
	return &res, resp.StatusCode, nil
}

// mixJob is one scheduled request and what came back.
type mixJob struct {
	idx    int
	cold   bool
	traced bool
	req    server.JobRequest
	want   string // expected output
	wantEx int64  // expected exit code

	ms     float64
	status int
	res    *server.JobResult
	err    error
}

// mixSchedule hands out jobs to the clients in groups of GroupSize:
// one cold job at a seeded position, warm programs in seeded cycles.
// It stops only at a group boundary, so every run has exactly one cold
// job per group.
type mixSchedule struct {
	mu        sync.Mutex
	r         *Run
	deadline  time.Time
	next      int
	coldAt    int
	warmOrder []int
	warmNext  int
	done      bool
}

func (s *mixSchedule) take() (*mixJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.r.cfg.ServeMix
	pos := s.next % c.GroupSize
	if pos == 0 {
		if s.done || (s.next > 0 && time.Now().After(s.deadline)) {
			s.done = true
			return nil, false
		}
		s.coldAt = s.r.rng.Intn(c.GroupSize)
	}
	j := &mixJob{idx: s.next, traced: s.r.tracerFor(s.next/c.GroupSize) != nil}
	s.next++
	if pos == s.coldAt {
		src, want := coldSource(s.r.seed, j.idx, c.ColdFuncs)
		j.cold, j.want = true, want
		j.req = server.JobRequest{Source: src.Text, Name: src.Name}
		return j, true
	}
	if s.warmNext == len(s.warmOrder) {
		s.warmOrder, s.warmNext = s.r.rng.Perm(len(c.Warm)), 0
	}
	name := c.Warm[s.warmOrder[s.warmNext]]
	s.warmNext++
	e := s.r.exp.Programs[progKey(name, 0)]
	j.req = server.JobRequest{Workload: name}
	j.want, j.wantEx = e.Output, e.Exit
	return j, true
}

// serveMix is the serve-mix workload: a closed loop of Clients HTTP
// clients against one in-process server. Three of every four jobs are
// warm (reference-input programs already in the mem tier); one is a
// never-seen source that compiles, links and publishes.
func serveMix(r *Run) error {
	c := r.cfg.ServeMix
	for _, name := range c.Warm {
		if _, ok := r.exp.Programs[progKey(name, 0)]; !ok {
			return fmt.Errorf("expected.json has no entry for %s", progKey(name, 0))
		}
	}
	m, err := timedSetup(r, c.SetupReps, func() (*mixServer, error) { return startMixServer(r) },
		func(m *mixServer) { m.stop() })
	if err != nil {
		return err
	}
	defer m.stop()
	exec0 := m.srv.MetricsSnapshot().Exec

	settle()
	start := time.Now()
	sched := &mixSchedule{r: r, deadline: start.Add(r.duration)}
	var (
		mu   sync.Mutex
		jobs []*mixJob
		wg   sync.WaitGroup
	)
	for k := 0; k < c.Clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := sched.take()
				if !ok {
					return
				}
				t0 := time.Now()
				j.res, j.status, j.err = m.post(j.req)
				j.ms = ms(time.Since(t0))
				if j.traced {
					traceMixJob(r.tr, j, t0)
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	exec1 := m.srv.MetricsSnapshot().Exec

	var (
		warmMs, coldMs, tracedMs, untracedMs       []float64
		probeMs, admitMs, queueMs, unattrMs, runMs []float64
		compileMs, linkMs                          []float64
		hits, rejected, instret                    int64
		tracedOps                                  int
		runSum                                     float64
	)
	for _, j := range jobs {
		r.attempted++
		if j.traced {
			tracedOps++
		}
		if j.status == http.StatusTooManyRequests {
			rejected++
		}
		if j.err != nil {
			r.fail("job %d: HTTP %d: %v", j.idx, j.status, j.err)
			continue
		}
		res := j.res
		if res.Status != server.StatusOK || res.ExitCode != j.wantEx || res.Output != j.want {
			r.fail("job %d (%s%s): status %s exit %d output %q, want exit %d output %q: %s",
				j.idx, j.req.Workload, j.req.Name, res.Status, res.ExitCode, res.Output, j.wantEx, j.want, res.Error)
			continue
		}
		// Schedules end at a group boundary, so passing this check on
		// every job makes the hit ratio exactly the warm share.
		wantTier := "mem"
		if j.cold {
			wantTier = "built"
		}
		if res.StoreTier != wantTier || res.Phases == nil {
			r.fail("job %d: store tier %q, want %q", j.idx, res.StoreTier, wantTier)
			continue
		}
		if res.StoreTier == "mem" {
			hits++
		}
		instret += res.Instret
		ph := res.Phases
		runSum += ph.RunMs
		admitMs = append(admitMs, ph.AdmissionMs)
		queueMs = append(queueMs, ph.QueueMs)
		if j.cold {
			coldMs = append(coldMs, j.ms)
			compileMs = append(compileMs, ph.CompileMs)
			linkMs = append(linkMs, ph.LinkMs)
			continue
		}
		warmMs = append(warmMs, j.ms)
		if j.traced {
			tracedMs = append(tracedMs, j.ms)
		} else {
			untracedMs = append(untracedMs, j.ms)
		}
		probeMs = append(probeMs, ph.StoreMs)
		runMs = append(runMs, ph.RunMs)
		// QueueMs runs from ingress, so it already covers AdmissionMs.
		unattrMs = append(unattrMs, j.ms-(ph.QueueMs+ph.StoreMs+ph.CompileMs+ph.LinkMs+ph.RunMs))
	}
	if !r.traced {
		r.set("op_p50_ms", median(warmMs))
		r.set("op_p90_ms", quantile(warmMs, 0.9))
		r.set("ops_per_s", float64(len(jobs))/elapsed.Seconds())
		r.set("guest_minstr_per_s", float64(instret)/elapsed.Seconds()/1e6)
		return nil
	}
	n := float64(len(jobs))
	r.set("toolchain.compile_ms", median(compileMs))
	r.set("toolchain.link_ms", median(linkMs))
	r.set("buildstore.probe_ms.p50", median(probeMs))
	r.set("buildstore.hit_ratio", ratio(float64(hits), n))
	r.set("server.admission_ms.p50", median(admitMs))
	r.set("cluster.queue_ms.p90", quantile(queueMs, 0.9))
	r.set("server.unattributed_ms.p50", median(unattrMs))
	r.set("server.rejected", float64(rejected))
	r.set("server.cold_ms.p50", median(coldMs))
	r.set("vm.run_ms.p50", median(runMs))
	r.set("vm.run_ms.p90", quantile(runMs, 0.9))
	r.set("vm.minstr_per_s", ratio(float64(instret), runSum/1e3)/1e6)
	r.set("vm.instret", ratio(float64(instret), n))
	r.set("vm.check_execs", ratio(float64(exec1.CheckExecs-exec0.CheckExecs), n))
	hitsV, missV := exec1.VerdictHits-exec0.VerdictHits, exec1.VerdictMisses-exec0.VerdictMisses
	r.set("vm.verdict_hit_ratio", ratio(float64(hitsV), float64(hitsV+missV)))
	r.set("vm.icache_fills", ratio(float64(exec1.ICacheFills-exec0.ICacheFills), n))
	r.set("vm.jit_block_runs", ratio(float64(exec1.JITBlockRuns-exec0.JITBlockRuns), n))
	r.reportTrace(tracedMs, untracedMs, tracedOps)
	return nil
}

// traceMixJob records a job's client-side span and, inside the HTTP
// POST, the phases the server reported, laid end to end: admission,
// the rest of the queue wait, store probe, compile, link, run. What
// the POST span keeps as self time is the round trip no phase covers
// (mostly mrt.New, plus HTTP and JSON).
func traceMixJob(tr *Tracer, j *mixJob, t0 time.Time) {
	end := t0.Add(time.Duration(j.ms * 1e6))
	op := int64(j.idx + 1)
	root := tr.Add(op, 0, "bench.job", t0, end)
	post := tr.Add(op, root, "http.POST", t0, end)
	if j.res == nil || j.res.Phases == nil {
		return
	}
	ph := j.res.Phases
	at := t0
	for _, p := range []struct {
		name string
		ms   float64
	}{
		{"server.admission", ph.AdmissionMs},
		{"cluster.queue", ph.QueueMs - ph.AdmissionMs},
		{"buildstore.probe", ph.StoreMs},
		{"toolchain.Compile", ph.CompileMs},
		{"toolchain.Link", ph.LinkMs},
		{"vm.Run", ph.RunMs},
	} {
		if p.ms <= 0 {
			continue
		}
		next := at.Add(time.Duration(p.ms * 1e6))
		tr.Add(op, post, p.name, at, next)
		at = next
	}
}
