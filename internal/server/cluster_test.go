package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lateHandler lets a replica's HTTP endpoint exist (with a URL) before
// the Server that backs it is constructed — Config.Self needs the URL.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newCluster starts n replicas that route to each other. Callers get
// the servers, their endpoints, and the shared peer URL list.
func newCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Server, []*httptest.Server) {
	t.Helper()
	eps := make([]*httptest.Server, n)
	lhs := make([]*lateHandler, n)
	urls := make([]string, n)
	for i := range eps {
		lhs[i] = &lateHandler{}
		eps[i] = httptest.NewServer(lhs[i])
		urls[i] = eps[i].URL
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		cfg := Config{Workers: 2, QueueDepth: 64, Peers: urls, Self: urls[i]}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = newTest(t, cfg)
		lhs[i].set(srvs[i].Handler())
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			drain(t, s)
		}
		for _, ep := range eps {
			ep.Close()
		}
	})
	return srvs, eps
}

func postRun(t *testing.T, url string, jr JobRequest) (*JobResult, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(jr)
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

// verdict is the portion of a JobResult that must be identical no
// matter which replica served the job (timing and cache-tier fields
// legitimately vary).
func verdict(r *JobResult) string {
	b, _ := json.Marshal(map[string]any{
		"status": r.Status, "exit": r.ExitCode, "instret": r.Instret,
		"output": r.Output, "error": r.Error, "fault": r.Fault,
	})
	return string(b)
}

// TestClusterProxyByteIdenticalVerdicts is the satellite requirement:
// a job submitted to the non-owning replica is proxied one hop and
// returns the same verdict bytes as the same job run on its owner.
func TestClusterProxyByteIdenticalVerdicts(t *testing.T) {
	srvs, _ := newCluster(t, 2, nil)
	jr := JobRequest{Source: helloSrc, Name: "hello"}

	owner, ok := srvs[0].ownerOf(jr)
	if !ok {
		t.Fatal("no owner resolved")
	}
	var ownerSrv, otherSrv *Server
	for _, s := range srvs {
		if s.self == owner {
			ownerSrv = s
		} else {
			otherSrv = s
		}
	}
	if ownerSrv == nil || otherSrv == nil {
		t.Fatalf("owner %q not among replicas", owner)
	}

	direct, _ := postRun(t, ownerSrv.self, jr)
	if direct == nil || direct.Status != StatusOK {
		t.Fatalf("direct run failed: %+v", direct)
	}
	if direct.Proxied {
		t.Error("owner-served job marked proxied")
	}

	proxied, _ := postRun(t, otherSrv.self, jr)
	if proxied == nil {
		t.Fatal("proxied run failed")
	}
	if !proxied.Proxied {
		t.Error("routed job not marked proxied")
	}
	if proxied.Replica != owner {
		t.Errorf("routed job executed on %q, want owner %q", proxied.Replica, owner)
	}
	if verdict(direct) != verdict(proxied) {
		t.Errorf("verdicts differ:\n direct : %s\n proxied: %s", verdict(direct), verdict(proxied))
	}

	// A CFI violation's verdict must survive the hop too.
	cfiReq := JobRequest{Source: smashSrc, Name: "smash"}
	cfiOwner, _ := srvs[0].ownerOf(cfiReq)
	var nonOwner *Server
	for _, s := range srvs {
		if s.self != cfiOwner {
			nonOwner = s
		}
	}
	a, _ := postRun(t, cfiOwner, cfiReq)
	b, _ := postRun(t, nonOwner.self, cfiReq)
	if a == nil || b == nil || a.Status != StatusCFI {
		t.Fatalf("cfi run: direct=%+v proxied=%+v", a, b)
	}
	if verdict(a) != verdict(b) {
		t.Errorf("cfi verdicts differ:\n direct : %s\n proxied: %s", verdict(a), verdict(b))
	}

	mo := ownerSrv.MetricsSnapshot()
	mn := otherSrv.MetricsSnapshot()
	if mo.Cluster == nil || mn.Cluster == nil {
		t.Fatal("cluster metrics missing")
	}
	if mn.Cluster.ProxiedOut == 0 || mo.Cluster.ProxiedIn == 0 {
		t.Errorf("proxy counters: out=%d in=%d, want both > 0",
			mn.Cluster.ProxiedOut, mo.Cluster.ProxiedIn)
	}
}

// TestClusterProxyFallbackLocal: when the owning replica is down, the
// receiving replica executes locally instead of failing the job.
func TestClusterProxyFallbackLocal(t *testing.T) {
	srvs, eps := newCluster(t, 2, nil)
	jr := JobRequest{Source: helloSrc, Name: "hello"}
	owner, _ := srvs[0].ownerOf(jr)
	var ownerIdx, otherIdx int
	for i, s := range srvs {
		if s.self == owner {
			ownerIdx = i
		} else {
			otherIdx = i
		}
	}
	// Kill the owner's endpoint (but keep its Server for Cleanup).
	eps[ownerIdx].Close()

	res, _ := postRun(t, srvs[otherIdx].self, jr)
	if res == nil || res.Status != StatusOK {
		t.Fatalf("fallback run failed: %+v", res)
	}
	if res.Replica != srvs[otherIdx].self {
		t.Errorf("fallback executed on %q, want local %q", res.Replica, srvs[otherIdx].self)
	}
	if res.Proxied {
		t.Error("fallback job marked proxied")
	}
	m := srvs[otherIdx].MetricsSnapshot()
	if m.Cluster.ProxyFallbacks == 0 {
		t.Error("proxy_fallbacks not counted")
	}
	// The dead peer is now in cooldown: a second job goes straight local.
	res2, _ := postRun(t, srvs[otherIdx].self, jr)
	if res2 == nil || res2.Replica != srvs[otherIdx].self {
		t.Fatalf("cooldown job: %+v", res2)
	}
}

// TestBatchEndpoint: N jobs in one round trip, results in request
// order, batch counters on /metrics.
func TestBatchEndpoint(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 32})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var jobs []JobRequest
	for i := 0; i < 6; i++ {
		jobs = append(jobs, JobRequest{
			Source: fmt.Sprintf("int main(void){ printf(\"j%%d\\n\", %d); return %d; }", i, i),
			Name:   fmt.Sprintf("j%d", i),
		})
	}
	body, _ := json.Marshal(BatchRequest{Tenant: "batcher", Jobs: jobs})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %s", resp.Status)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Count != 6 || bresp.Rejected != 0 || len(bresp.Results) != 6 {
		t.Fatalf("batch response: %+v", bresp)
	}
	for i, r := range bresp.Results {
		if r.Status != StatusOK || r.ExitCode != int64(i) || r.Tenant != "batcher" {
			t.Errorf("result %d out of order or wrong: %+v", i, r)
		}
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Batches != 1 || m.Jobs.BatchJobs != 6 {
		t.Errorf("batch counters: %d batches, %d jobs", m.Jobs.Batches, m.Jobs.BatchJobs)
	}
}

// TestBatchAtomicRejection: a batch that cannot be admitted whole is
// refused whole — rejected results, Retry-After, nothing executed.
func TestBatchAtomicRejection(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 2})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var jobs []JobRequest
	for i := 0; i < 8; i++ { // exceeds QueueDepth 2
		jobs = append(jobs, JobRequest{Source: helloSrc, Name: "h"})
	}
	body, _ := json.Marshal(BatchRequest{Jobs: jobs})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %s, want 200 with rejected results", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rejected batch missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q not a positive integer", ra)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Rejected != 8 || bresp.RetryAfterSecs < 1 {
		t.Fatalf("batch response: %+v", bresp)
	}
	for i, r := range bresp.Results {
		if r.Status != StatusRejected {
			t.Errorf("result %d status %q, want rejected", i, r.Status)
		}
	}
	if m := s.MetricsSnapshot(); m.Jobs.Accepted != 0 || m.Jobs.Completed != 0 {
		t.Errorf("refused batch executed: accepted=%d completed=%d", m.Jobs.Accepted, m.Jobs.Completed)
	}
}

// TestBatchStreaming: stream:true yields NDJSON items, every index
// exactly once.
func TestBatchStreaming(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 32})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var jobs []JobRequest
	for i := 0; i < 5; i++ {
		jobs = append(jobs, JobRequest{Source: helloSrc, Name: "h"})
	}
	body, _ := json.Marshal(BatchRequest{Stream: true, Jobs: jobs})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	seen := map[int]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		seen[item.Index]++
		if item.Result.Status != StatusOK {
			t.Errorf("index %d status %q", item.Index, item.Result.Status)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("saw %d distinct indices, want 5 (%v)", len(seen), seen)
	}
	for i := 0; i < 5; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d delivered %d times", i, seen[i])
		}
	}
}

// TestRetryAfterHeader is the satellite requirement: 429s carry a
// positive integer Retry-After derived from the drain rate.
func TestRetryAfterHeader(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the worker, then fill the queue. The second spin job is
	// submitted only once the first is running: submitted together,
	// both could land in the one-slot queue before the worker pops
	// either, and the second would be refused instead of queued.
	var wg sync.WaitGroup
	spin := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), JobRequest{Source: spinSrc, Name: "spin", TimeoutMs: 1500})
		}()
	}
	waitQueue := func(what string, reached func(QueueState) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !reached(s.MetricsSnapshot().Queue) {
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %s: %+v", what, s.MetricsSnapshot().Queue)
			}
			time.Sleep(time.Millisecond)
		}
	}
	spin()
	waitQueue("Busy == 1", func(q QueueState) bool { return q.Busy == 1 })
	spin()
	waitQueue("Depth == 1", func(q QueueState) bool { return q.Depth == 1 })

	res, resp := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "h"})
	if res != nil {
		t.Fatalf("expected 429, got result %+v", res)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429", resp.Status)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 30 {
		t.Errorf("Retry-After %q, want integer in [1,30]", ra)
	}
	wg.Wait()
}

// TestQueuePercentilesExported is the satellite requirement: /metrics
// exposes p50/p95/p99 queue latency from the live sample window.
func TestQueuePercentilesExported(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 16})
	defer drain(t, s)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), JobRequest{Source: helloSrc, Name: "h"})
		}()
	}
	wg.Wait()

	q := s.MetricsSnapshot().Queue
	if q.P50Ms > q.P95Ms || q.P95Ms > q.P99Ms {
		t.Errorf("percentiles not monotone: p50=%.3f p95=%.3f p99=%.3f", q.P50Ms, q.P95Ms, q.P99Ms)
	}
	// 8 jobs through 1 worker: the slowest waiters queued behind real
	// builds, so the upper tail must be nonzero.
	if q.P99Ms <= 0 {
		t.Errorf("p99 = %.3f after contended run, want > 0", q.P99Ms)
	}
	if q.RetryAfterSecs < 1 {
		t.Errorf("retry_after_secs = %d, want >= 1", q.RetryAfterSecs)
	}
}

// TestSubmitDrainRaceTenants is the satellite requirement at the
// server level: 64 concurrent submitters across 4 tenants race Drain;
// no job is both refused and executed, and per-tenant counters
// balance. Run under -race in CI.
func TestSubmitDrainRaceTenants(t *testing.T) {
	const submitters = 64
	s := newTest(t, Config{
		Workers:       4,
		QueueDepth:    submitters,
		TenantWeights: map[string]int{"t0": 4, "t1": 3, "t2": 2, "t3": 1},
	})

	var executed, refused, otherErr atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < submitters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := s.Submit(context.Background(), JobRequest{
					Source: helloSrc, Name: "h",
					Tenant: fmt.Sprintf("t%d", (p+i)%4),
				})
				switch {
				case err == nil:
					if res.Status == "" {
						t.Error("admitted job returned no result")
					}
					executed.Add(1)
				case errors.Is(err, ErrDraining), errors.Is(err, ErrBusy), errors.Is(err, ErrTenantBusy):
					refused.Add(1)
				default:
					otherErr.Add(1)
					t.Errorf("submit: %v", err)
				}
			}
		}(p)
	}
	time.Sleep(20 * time.Millisecond)
	drain(t, s)
	wg.Wait()

	total := int64(submitters * 4)
	if executed.Load()+refused.Load()+otherErr.Load() != total {
		t.Errorf("executed %d + refused %d != %d", executed.Load(), refused.Load(), total)
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Accepted != executed.Load() {
		t.Errorf("server accepted %d, clients saw %d results (refused-and-executed or lost job)",
			m.Jobs.Accepted, executed.Load())
	}
	if m.Jobs.Completed != m.Jobs.Accepted {
		t.Errorf("accepted %d != completed %d after drain", m.Jobs.Accepted, m.Jobs.Completed)
	}
	for _, ts := range m.Tenants {
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %s not drained: %+v", ts.Tenant, ts)
		}
		if ts.Submitted != ts.Dequeued || ts.Dequeued != ts.Completed {
			t.Errorf("tenant %s counters unbalanced: %+v", ts.Tenant, ts)
		}
	}
}

// TestAutoscaleIntegration: under sustained backlog the pool grows
// from WorkersMin toward WorkersMax, and Drain stops the scaler
// without leaking its goroutine.
func TestAutoscaleIntegration(t *testing.T) {
	s := newTest(t, Config{
		WorkersMin: 1, WorkersMax: 3,
		QueueDepth:      64,
		AutoscaleTarget: time.Millisecond,
	})
	if got := s.Workers(); got != 1 {
		t.Fatalf("initial workers = %d, want WorkersMin 1", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(context.Background(), JobRequest{Source: helloSrc, Name: "h"}); err != nil {
					return // draining
				}
			}
		}()
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.Workers() < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	grew := s.Workers()
	close(stop)
	wg.Wait()
	if grew < 2 {
		t.Errorf("pool never grew under backlog: workers = %d", grew)
	}
	m := s.MetricsSnapshot()
	if m.Autoscale == nil || !m.Autoscale.Enabled || m.Autoscale.ScaleUps == 0 {
		t.Errorf("autoscale metrics: %+v", m.Autoscale)
	}
	drain(t, s)
}

// TestRunLoadCluster drives the load harness end to end against two
// routing replicas with tenants, a synthetic corpus, and batching.
func TestRunLoadCluster(t *testing.T) {
	srvs, eps := newCluster(t, 2, func(i int, cfg *Config) {
		cfg.Workers = 2
		cfg.QueueDepth = 64
	})
	_ = srvs
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addrs:          []string{eps[0].URL, eps[1].URL},
		Concurrency:    4,
		Requests:       24,
		Tenants:        []string{"a", "b", "c"},
		Distinct:       6,
		SyntheticFuncs: 32,
		Batch:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Statuses[StatusOK]; got != 24 {
		t.Fatalf("ok = %d of 24: %+v", got, rep.Statuses)
	}
	if len(rep.TenantLoads) != 3 {
		t.Errorf("tenant breakdown: %+v", rep.TenantLoads)
	}
	var jobs int64
	for _, rl := range rep.ReplicaLoads {
		jobs += rl.Jobs
	}
	if jobs != 24 {
		t.Errorf("replica jobs sum %d, want 24 (%+v)", jobs, rep.ReplicaLoads)
	}
	// Both replicas should have executed something: 6 variants spread
	// over a 2-replica ring makes a single-sided split very unlikely,
	// but don't flake on it — just require the breakdown exists.
	if len(rep.ReplicaLoads) == 0 {
		t.Error("no replica breakdown")
	}
}
