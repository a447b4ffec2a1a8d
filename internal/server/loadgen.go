package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcfi/internal/buildstore"
	"mcfi/internal/workload"
)

// LoadConfig drives a load run against one serving endpoint or a
// replica set.
type LoadConfig struct {
	// BaseURL is a single server root, e.g. "http://127.0.0.1:8377".
	// Addrs lists several replica roots; submissions round-robin
	// across them (the replicas' own fingerprint routing decides where
	// each job executes). Setting both treats BaseURL as one more
	// replica.
	BaseURL string
	Addrs   []string
	// Concurrency is the number of in-flight requests (default 8).
	Concurrency int
	// Requests is the total jobs to complete (default 3 per workload).
	Requests int
	// Tenants cycles jobs across these tenant names (default: the
	// server-side default tenant).
	Tenants []string
	// Workloads cycles through these benchmark names (default: all 12).
	Workloads []string
	// Distinct > 0 switches the corpus from named workloads to Distinct
	// deterministic synthetic sources (SyntheticFuncs functions each,
	// default 256): build-heavy, run-light jobs whose working set
	// exercises the build store rather than guest execution.
	Distinct       int
	SyntheticFuncs int
	// Batch > 1 submits jobs through POST /v1/batch in groups of Batch
	// (refused jobs are retried after the advertised Retry-After).
	Batch int
	// JobMix assigns relative weights to job kinds ("run", "dlopen",
	// "jitsim"); jobs cycle through a deterministic weighted pattern.
	// Empty or {"run": n} means plain run jobs only. Non-run kinds
	// ignore the corpus settings (the server synthesizes their guests).
	JobMix map[string]int
	// Work overrides the iteration count; 0 = reference inputs;
	// UseTestWork uses each workload's reduced test scale instead.
	Work        int
	UseTestWork bool
	// Engine/Baseline/MaxInstr/TimeoutMs pass through to every job.
	Engine    string
	Baseline  bool
	MaxInstr  int64
	TimeoutMs int64
	// RetryCap bounds how long a worker sleeps on a server's
	// Retry-After before resubmitting (default 500ms, so short smoke
	// runs are not serialized by the server's 1s clamp floor).
	RetryCap time.Duration
	// Client overrides the HTTP client (default: 5-minute timeout).
	Client *http.Client
}

// TenantLoad is one tenant's slice of a load run, as observed by the
// client.
type TenantLoad struct {
	Tenant   string  `json:"tenant"`
	Jobs     int64   `json:"jobs"`
	Rejected int64   `json:"rejected_429"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// KindLoad is one job kind's slice of a mixed load run, with its own
// latency distribution (a dlopen job and a qsort run have very
// different cost profiles; mixing their percentiles hides both).
type KindLoad struct {
	Kind   string  `json:"kind"`
	Jobs   int64   `json:"jobs"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// Updates/DeltaPublishes aggregate the update-transaction counters
	// the server reports per job (non-zero for dynamic kinds).
	Updates        int64 `json:"updates,omitempty"`
	DeltaPublishes int64 `json:"delta_publishes,omitempty"`
}

// ReplicaLoad is one replica's slice of a load run: jobs attributed by
// the JobResult.Replica field (falling back to the submission address
// outside cluster mode), plus that replica's final /metrics.
type ReplicaLoad struct {
	Addr    string `json:"addr"`
	Jobs    int64  `json:"jobs"`
	Proxied int64  `json:"proxied"`
	// HitRate is the fraction of this replica's jobs served from any
	// store tier (not freshly built).
	HitRate    float64          `json:"hit_rate"`
	StoreTiers map[string]int64 `json:"store_tiers"`
	MeanMs     float64          `json:"mean_ms"`
	P95Ms      float64          `json:"p95_ms"`
	Metrics    *Metrics         `json:"metrics,omitempty"`
}

// LoadReport is the serving-throughput snapshot a load run emits
// (the BENCH_*_serving.json schema).
type LoadReport struct {
	Kind        string   `json:"kind"` // "mcfi-serve-load"
	Addrs       []string `json:"addrs"`
	Concurrency int      `json:"concurrency"`
	Requests    int      `json:"requests"`
	Workloads   []string `json:"workloads,omitempty"`
	Distinct    int      `json:"distinct_sources,omitempty"`
	BatchSize   int      `json:"batch_size,omitempty"`
	Engine      string   `json:"engine"`

	WallSecs     float64 `json:"wall_secs"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	GuestInstret int64   `json:"guest_instret"`
	// MinstrPerSecWall is end-to-end serving throughput: aggregate
	// retired guest instructions over the whole run's wall time
	// (queueing, builds, and cache hits included).
	MinstrPerSecWall float64 `json:"minstr_per_sec_wall"`
	// MinstrPerSecExec is the server's execution-only throughput from
	// its /metrics (instret over summed per-job run time).
	MinstrPerSecExec float64 `json:"minstr_per_sec_exec"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	// StoreTiers counts completed jobs by where their image came from
	// ("mem", "disk", "remote", "built") as reported per response.
	StoreTiers map[string]int64 `json:"store_tiers"`
	Rejected   int64            `json:"rejected_429"`
	Proxied    int64            `json:"proxied_jobs"`
	Statuses   map[string]int64 `json:"statuses"`

	// TenantLoads, ReplicaLoads, and KindLoads break the run down by
	// scheduling tenant, executing replica, and job kind.
	TenantLoads  []TenantLoad  `json:"tenant_loads,omitempty"`
	ReplicaLoads []ReplicaLoad `json:"replica_loads,omitempty"`
	KindLoads    []KindLoad    `json:"kind_loads,omitempty"`

	// ServerMetrics is the first endpoint's final /metrics document
	// (kept for single-replica compatibility; per-replica metrics live
	// in ReplicaLoads).
	ServerMetrics *Metrics `json:"server_metrics,omitempty"`
}

// loadBucket accumulates per-tenant or per-replica observations.
type loadBucket struct {
	jobs     int64
	rejected int64
	proxied  int64
	hits     int64
	updates  int64
	deltas   int64
	tiers    map[string]int64
	latMs    []float64
}

// storeHit reports whether a job's image came from a build-store tier
// rather than a fresh compile (jobs that never built have no tier).
func storeHit(res *JobResult) bool {
	return res.StoreTier != "" && res.StoreTier != string(buildstore.TierBuilt)
}

func newBucket() *loadBucket { return &loadBucket{tiers: map[string]int64{}} }

func (b *loadBucket) observe(res *JobResult, latMs float64) {
	b.jobs++
	b.latMs = append(b.latMs, latMs)
	if res.StoreTier != "" {
		b.tiers[res.StoreTier]++
	}
	if storeHit(res) {
		b.hits++
	}
	if res.Proxied {
		b.proxied++
	}
	b.updates += res.Updates
	b.deltas += res.DeltaPublishes
}

func meanP95(lats []float64) (mean, p95 float64) {
	mean, qs := meanQuantiles(lats, 0.95)
	return mean, qs[0]
}

// meanQuantiles returns the mean and the nearest-rank quantiles of a
// latency sample (zeros when empty).
func meanQuantiles(lats []float64, ps ...float64) (float64, []float64) {
	qs := make([]float64, len(ps))
	if len(lats) == 0 {
		return 0, qs
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	for i, p := range ps {
		k := int(float64(len(sorted))*p+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(sorted) {
			k = len(sorted) - 1
		}
		qs[i] = sorted[k]
	}
	return sum / float64(len(sorted)), qs
}

// loadRun is the shared mutable state of one RunLoad.
type loadRun struct {
	cfg    LoadConfig
	addrs  []string
	client *http.Client
	rep    *LoadReport

	// mixPattern is the deterministic weighted kind schedule job i is
	// assigned from (kind = mixPattern[i % len]); empty means all "run".
	mixPattern []string

	mu       sync.Mutex
	firstErr error
	hits     int64
	results  int64
	tenants  map[string]*loadBucket
	replicas map[string]*loadBucket
	kinds    map[string]*loadBucket
}

// RunLoad hammers the endpoint(s) with the configured corpus at the
// configured concurrency until Requests jobs complete, then snapshots
// every replica's metrics. Queue-full rejections (HTTP 429) are
// counted and retried after the server's advertised Retry-After
// (capped at RetryCap) — backpressure is an expected, measured
// outcome, not a failure. Any transport-level error aborts the run.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Distinct <= 0 && len(cfg.Workloads) == 0 {
		for _, w := range workload.All() {
			cfg.Workloads = append(cfg.Workloads, w.Name)
		}
	}
	if cfg.Requests <= 0 {
		if cfg.Distinct > 0 {
			cfg.Requests = 3 * cfg.Distinct
		} else {
			cfg.Requests = 3 * len(cfg.Workloads)
		}
	}
	if cfg.SyntheticFuncs <= 0 {
		cfg.SyntheticFuncs = 256
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 500 * time.Millisecond
	}
	var addrs []string
	if cfg.BaseURL != "" {
		addrs = append(addrs, normalizeURL(cfg.BaseURL))
	}
	for _, a := range cfg.Addrs {
		if u := normalizeURL(a); u != "" {
			addrs = append(addrs, u)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("load: no server address configured")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}

	mixPattern, err := mixScheduleOf(cfg.JobMix)
	if err != nil {
		return nil, err
	}

	lr := &loadRun{
		cfg: cfg, addrs: addrs, client: client,
		mixPattern: mixPattern,
		tenants:    map[string]*loadBucket{},
		replicas:   map[string]*loadBucket{},
		kinds:      map[string]*loadBucket{},
		rep: &LoadReport{
			Kind:        "mcfi-serve-load",
			Addrs:       addrs,
			Concurrency: cfg.Concurrency,
			Requests:    cfg.Requests,
			Workloads:   cfg.Workloads,
			Distinct:    cfg.Distinct,
			BatchSize:   cfg.Batch,
			Engine:      cfg.Engine,
			Statuses:    map[string]int64{},
			StoreTiers:  map[string]int64{},
		},
	}

	start := time.Now()
	err = lr.run(ctx)
	lr.rep.WallSecs = time.Since(start).Seconds()
	if err != nil {
		return lr.rep, err
	}
	if err := ctx.Err(); err != nil {
		return lr.rep, err
	}
	lr.finish(ctx)
	return lr.rep, nil
}

// mixScheduleOf expands kind weights into the repeating schedule jobs
// cycle through, interleaved by largest remainder so a run=4,dlopen=1
// mix does not submit its dlopens back to back.
func mixScheduleOf(mix map[string]int) ([]string, error) {
	if len(mix) == 0 {
		return nil, nil
	}
	kinds := make([]string, 0, len(mix))
	total := 0
	for k, w := range mix {
		switch k {
		case "run", "dlopen", "jitsim":
		default:
			return nil, fmt.Errorf("load: unknown job kind %q in mix (want run, dlopen, or jitsim)", k)
		}
		if w < 0 {
			return nil, fmt.Errorf("load: negative weight %d for job kind %q", w, k)
		}
		if w > 0 {
			kinds = append(kinds, k)
			total += w
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("load: job mix has no positive weights")
	}
	sort.Strings(kinds)
	pattern := make([]string, 0, total)
	credit := map[string]float64{}
	for len(pattern) < total {
		best, bestCredit := "", 0.0
		for _, k := range kinds {
			credit[k] += float64(mix[k]) / float64(total)
			if credit[k] > bestCredit {
				best, bestCredit = k, credit[k]
			}
		}
		credit[best]--
		pattern = append(pattern, best)
	}
	return pattern, nil
}

func (lr *loadRun) kindOf(n int) string {
	if len(lr.mixPattern) == 0 {
		return "run"
	}
	return lr.mixPattern[n%len(lr.mixPattern)]
}

func (lr *loadRun) tenantOf(n int) string {
	if len(lr.cfg.Tenants) == 0 {
		return ""
	}
	return lr.cfg.Tenants[n%len(lr.cfg.Tenants)]
}

// reqOf builds job i. With a synthetic corpus the variant index is
// LCG-scrambled so the access order is not a cache-friendly cycle: the
// instantaneous working set is the whole corpus.
func (lr *loadRun) reqOf(i int) JobRequest {
	cfg := lr.cfg
	jr := JobRequest{
		Engine: cfg.Engine, Baseline: cfg.Baseline,
		MaxInstr: cfg.MaxInstr, TimeoutMs: cfg.TimeoutMs,
	}
	if kind := lr.kindOf(i); kind != "run" {
		jr.Kind, jr.Work = kind, cfg.Work
		return jr
	}
	if cfg.Distinct > 0 {
		v := int((uint64(i)*6364136223846793005 + 1442695040888963407) >> 33 % uint64(cfg.Distinct))
		jr.Source = SyntheticSource(v, cfg.SyntheticFuncs)
		jr.Name = fmt.Sprintf("synth-%04d", v)
		return jr
	}
	name := cfg.Workloads[i%len(cfg.Workloads)]
	work := cfg.Work
	if cfg.UseTestWork {
		if w, ok := workload.ByName(name); ok {
			work = w.TestWork
		}
	}
	jr.Workload, jr.Work = name, work
	return jr
}

func (lr *loadRun) record(res *JobResult, jr *JobRequest, tenant, addr string, latMs float64) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.results++
	lr.rep.Statuses[res.Status]++
	lr.rep.GuestInstret += res.Instret
	if res.StoreTier != "" {
		lr.rep.StoreTiers[res.StoreTier]++
	}
	if storeHit(res) {
		lr.hits++
	}
	if res.Proxied {
		lr.rep.Proxied++
	}
	tn := tenant
	if tn == "" {
		tn = DefaultTenant
	}
	tb := lr.tenants[tn]
	if tb == nil {
		tb = newBucket()
		lr.tenants[tn] = tb
	}
	tb.observe(res, latMs)
	rn := res.Replica
	if rn == "" {
		rn = addr
	}
	rb := lr.replicas[rn]
	if rb == nil {
		rb = newBucket()
		lr.replicas[rn] = rb
	}
	rb.observe(res, latMs)
	kind := jr.Kind
	if kind == "" {
		kind = "run"
	}
	kb := lr.kinds[kind]
	if kb == nil {
		kb = newBucket()
		lr.kinds[kind] = kb
	}
	kb.observe(res, latMs)
}

func (lr *loadRun) countRejected(tenant string, n int64) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rep.Rejected += n
	tn := tenant
	if tn == "" {
		tn = DefaultTenant
	}
	tb := lr.tenants[tn]
	if tb == nil {
		tb = newBucket()
		lr.tenants[tn] = tb
	}
	tb.rejected += n
}

func (lr *loadRun) fail(err error) {
	lr.mu.Lock()
	if lr.firstErr == nil {
		lr.firstErr = err
	}
	lr.mu.Unlock()
}

func (lr *loadRun) run(ctx context.Context) error {
	if lr.cfg.Batch > 1 {
		lr.runBatched(ctx)
	} else {
		lr.runSingles(ctx)
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.firstErr
}

func (lr *loadRun) runSingles(ctx context.Context) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < lr.cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jr := lr.reqOf(i)
				jr.Tenant = lr.tenantOf(i)
				addr := lr.addrs[i%len(lr.addrs)]
				t0 := time.Now()
				res, err := lr.postJob(ctx, addr, jr)
				if err != nil {
					lr.fail(err)
					return
				}
				lr.record(res, &jr, jr.Tenant, addr, ms(time.Since(t0)))
			}
		}()
	}
	for i := 0; i < lr.cfg.Requests; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			i = lr.cfg.Requests
		}
	}
	close(idx)
	wg.Wait()
}

// runBatched groups jobs into /v1/batch calls, one tenant per batch,
// resubmitting rejected jobs after the advertised Retry-After.
func (lr *loadRun) runBatched(ctx context.Context) {
	type chunk struct {
		start, n, batchNo int
	}
	chunks := make(chan chunk)
	var wg sync.WaitGroup
	for c := 0; c < lr.cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range chunks {
				tenant := lr.tenantOf(ch.batchNo)
				addr := lr.addrs[ch.batchNo%len(lr.addrs)]
				jobs := make([]JobRequest, ch.n)
				for k := 0; k < ch.n; k++ {
					jobs[k] = lr.reqOf(ch.start + k)
				}
				if err := lr.postBatch(ctx, addr, tenant, jobs); err != nil {
					lr.fail(err)
					return
				}
			}
		}()
	}
	batchNo := 0
	for i := 0; i < lr.cfg.Requests; i += lr.cfg.Batch {
		n := lr.cfg.Batch
		if i+n > lr.cfg.Requests {
			n = lr.cfg.Requests - i
		}
		select {
		case chunks <- chunk{i, n, batchNo}:
		case <-ctx.Done():
			i = lr.cfg.Requests
		}
		batchNo++
	}
	close(chunks)
	wg.Wait()
}

// retrySleep honors a server-advertised Retry-After (seconds), capped
// by RetryCap, falling back to the given default.
func (lr *loadRun) retrySleep(ctx context.Context, header string, fallback time.Duration) error {
	d := fallback
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > lr.cfg.RetryCap {
		d = lr.cfg.RetryCap
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// postJob POSTs one job, retrying 429s per the server's Retry-After.
func (lr *loadRun) postJob(ctx context.Context, base string, jr JobRequest) (*JobResult, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	fallback := 5 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := lr.client.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var res JobResult
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("bad /run response: %v", err)
			}
			return &res, nil
		case http.StatusTooManyRequests:
			lr.countRejected(jr.Tenant, 1)
			if err := lr.retrySleep(ctx, resp.Header.Get("Retry-After"), fallback); err != nil {
				return nil, err
			}
			if fallback < 200*time.Millisecond {
				fallback *= 2
			}
		default:
			return nil, fmt.Errorf("POST /run: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

// postBatch submits one batch, recording executed results and
// resubmitting rejected jobs until none remain.
func (lr *loadRun) postBatch(ctx context.Context, addr, tenant string, jobs []JobRequest) error {
	pending := jobs
	for len(pending) > 0 {
		breq := BatchRequest{Tenant: tenant, Jobs: pending}
		body, err := json.Marshal(breq)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := lr.client.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			return fmt.Errorf("POST /v1/batch: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/batch: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var bresp BatchResponse
		if err := json.Unmarshal(data, &bresp); err != nil {
			return fmt.Errorf("bad /v1/batch response: %v", err)
		}
		if len(bresp.Results) != len(pending) {
			return fmt.Errorf("batch returned %d results for %d jobs", len(bresp.Results), len(pending))
		}
		perJobMs := ms(time.Since(t0)) / float64(len(pending))
		var retry []JobRequest
		for i := range bresp.Results {
			res := bresp.Results[i]
			if res.Status == StatusRejected {
				retry = append(retry, pending[i])
				continue
			}
			lr.record(&res, &pending[i], tenant, addr, perJobMs)
		}
		if len(retry) > 0 {
			lr.countRejected(tenant, int64(len(retry)))
			if err := lr.retrySleep(ctx, resp.Header.Get("Retry-After"), 50*time.Millisecond); err != nil {
				return err
			}
		}
		pending = retry
	}
	return nil
}

// finish derives rates and breakdowns and snapshots replica metrics.
func (lr *loadRun) finish(ctx context.Context) {
	rep := lr.rep
	rep.JobsPerSec = float64(lr.results) / rep.WallSecs
	if lr.results > 0 {
		rep.CacheHitRate = float64(lr.hits) / float64(lr.results)
	}
	if rep.WallSecs > 0 {
		rep.MinstrPerSecWall = float64(rep.GuestInstret) / rep.WallSecs / 1e6
	}

	for tn, b := range lr.tenants {
		mean, qs := meanQuantiles(b.latMs, 0.50, 0.95, 0.99)
		rep.TenantLoads = append(rep.TenantLoads, TenantLoad{
			Tenant: tn, Jobs: b.jobs, Rejected: b.rejected,
			MeanMs: mean, P50Ms: qs[0], P95Ms: qs[1], P99Ms: qs[2],
		})
	}
	sort.Slice(rep.TenantLoads, func(i, j int) bool { return rep.TenantLoads[i].Tenant < rep.TenantLoads[j].Tenant })

	// Per-kind breakdown, emitted only for mixed runs — a single-kind
	// run's numbers are the top-level ones.
	if len(lr.cfg.JobMix) > 0 {
		for kind, b := range lr.kinds {
			mean, qs := meanQuantiles(b.latMs, 0.50, 0.95, 0.99)
			rep.KindLoads = append(rep.KindLoads, KindLoad{
				Kind: kind, Jobs: b.jobs,
				MeanMs: mean, P50Ms: qs[0], P95Ms: qs[1], P99Ms: qs[2],
				Updates: b.updates, DeltaPublishes: b.deltas,
			})
		}
		sort.Slice(rep.KindLoads, func(i, j int) bool { return rep.KindLoads[i].Kind < rep.KindLoads[j].Kind })
	}

	// Per-replica metrics snapshots, matched to execution buckets by
	// the replica's self URL (or the submission addr when routing is
	// off).
	metricsByAddr := map[string]*Metrics{}
	for _, a := range lr.addrs {
		if m, err := fetchMetrics(ctx, lr.client, a); err == nil {
			metricsByAddr[a] = m
		}
	}
	names := make([]string, 0, len(lr.replicas))
	for n := range lr.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := lr.replicas[n]
		mean, p95 := meanP95(b.latMs)
		rl := ReplicaLoad{
			Addr: n, Jobs: b.jobs, Proxied: b.proxied,
			StoreTiers: b.tiers, MeanMs: mean, P95Ms: p95,
			Metrics: metricsByAddr[n],
		}
		if b.jobs > 0 {
			rl.HitRate = float64(b.hits) / float64(b.jobs)
		}
		rep.ReplicaLoads = append(rep.ReplicaLoads, rl)
	}
	if m := metricsByAddr[lr.addrs[0]]; m != nil {
		rep.ServerMetrics = m
		rep.MinstrPerSecExec = m.Exec.MinstrPerSec
	}
	// Sum execution throughput across replicas when clustered.
	if len(lr.addrs) > 1 {
		var total float64
		for _, m := range metricsByAddr {
			total += m.Exec.MinstrPerSec
		}
		rep.MinstrPerSecExec = total
	}
}

func fetchMetrics(ctx context.Context, client *http.Client, base string) (*Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Summary renders the report as the human-readable table mcfi-load
// prints.
func (r *LoadReport) Summary() string {
	var b bytes.Buffer
	corpus := fmt.Sprintf("%d workloads", len(r.Workloads))
	if r.Distinct > 0 {
		corpus = fmt.Sprintf("%d distinct sources", r.Distinct)
	}
	fmt.Fprintf(&b, "serving load: %d jobs, concurrency %d, %s, %d replicas, %.2fs wall\n",
		r.Requests, r.Concurrency, corpus, len(r.Addrs), r.WallSecs)
	fmt.Fprintf(&b, "  throughput: %.2f jobs/s, %.2f Minstr/s end-to-end, %.2f Minstr/s exec\n",
		r.JobsPerSec, r.MinstrPerSecWall, r.MinstrPerSecExec)
	fmt.Fprintf(&b, "  build store: %.0f%% hit rate (mem=%d disk=%d remote=%d built=%d); backpressure: %d rejections retried; %d jobs proxied\n",
		100*r.CacheHitRate, r.StoreTiers["mem"], r.StoreTiers["disk"],
		r.StoreTiers["remote"], r.StoreTiers["built"], r.Rejected, r.Proxied)
	var keys []string
	for k := range r.Statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "  outcomes:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Statuses[k])
	}
	fmt.Fprintln(&b)
	for _, t := range r.TenantLoads {
		fmt.Fprintf(&b, "  tenant %-12s %5d jobs, %4d rejected, mean %.1fms, p50 %.1fms, p95 %.1fms, p99 %.1fms\n",
			t.Tenant, t.Jobs, t.Rejected, t.MeanMs, t.P50Ms, t.P95Ms, t.P99Ms)
	}
	for _, rl := range r.ReplicaLoads {
		fmt.Fprintf(&b, "  replica %-24s %5d jobs (%d proxied), %3.0f%% store hits, mean %.1fms, p95 %.1fms\n",
			rl.Addr, rl.Jobs, rl.Proxied, 100*rl.HitRate, rl.MeanMs, rl.P95Ms)
	}
	for _, kl := range r.KindLoads {
		fmt.Fprintf(&b, "  kind   %-12s %5d jobs, mean %.1fms, p50 %.1fms, p95 %.1fms, p99 %.1fms",
			kl.Kind, kl.Jobs, kl.MeanMs, kl.P50Ms, kl.P95Ms, kl.P99Ms)
		if kl.Updates > 0 {
			fmt.Fprintf(&b, ", %d updates (%d delta)", kl.Updates, kl.DeltaPublishes)
		}
		fmt.Fprintln(&b)
	}
	if m := r.ServerMetrics; m != nil {
		fmt.Fprintf(&b, "  server: %d accepted, %d completed, %d CFI violations, %d timeouts, %d checks (%d verdict-cache hits)\n",
			m.Jobs.Accepted, m.Jobs.Completed, m.Jobs.CFIViolations,
			m.Jobs.Timeouts, m.Exec.CheckExecs, m.Exec.VerdictHits)
	}
	return b.String()
}
