// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time against the MCFI stack built
// from this checkout, checks every operation's output, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload exec-suite --seed 1 --seconds 36 --trace 0
//
// Workloads (see config.json for why each exists and what it stresses):
//
//	exec-suite    closed loop, 1 caller: mrt.New + Run of the twelve
//	              SPEC-named programs, images built during set-up.
//	serve-mix     closed loop, 2 HTTP clients against an in-process
//	              server: 3 warm jobs (mem-tier images) per cold one.
//	update-storm  open loop at 50 Hz: Dlopen + Dlsym of precompiled
//	              plugins into a running instrumented guest.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from spans the
// benchmark records around its own calls into each layer (written to
// .bench_build/spans-<workload>-<seed>.json).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

//go:embed config.json
var configJSON []byte

//go:embed expected.json
var expectedJSON []byte

// Config is the fixed shape of every workload (config.json, which
// also records why each workload exists and the layer-to-metric map).
type Config struct {
	ExecSuite struct {
		Work      map[string]int `json:"work"`
		SetupReps int            `json:"setup_reps"`
	} `json:"exec_suite"`
	ServeMix struct {
		Workers   int      `json:"workers"`
		Clients   int      `json:"clients"`
		Warm      []string `json:"warm"`
		GroupSize int      `json:"group_size"`
		ColdFuncs int      `json:"cold_funcs"`
		SetupReps int      `json:"setup_reps"`
	} `json:"serve_mix"`
	UpdateStorm struct {
		Guest     string  `json:"guest"`
		GuestWork int     `json:"guest_work"`
		Scaling   string  `json:"scaling_module_of"`
		GenScale  float64 `json:"gen_scale"`
		GenSeed   uint64  `json:"gen_seed"`
		Plugins   int     `json:"plugins_per_runtime"`
		Hz        int     `json:"hz"`
		SetupReps int     `json:"setup_reps"`
	} `json:"update_storm"`
}

// Expected holds each program's recorded outcome: the exit code and
// output every run must reproduce, and the deterministic counts a run
// is flagged for drifting from.
type Expected struct {
	// Programs is keyed by "<name>@<work>" (work 0 = reference input).
	Programs map[string]ExpectedRun `json:"programs"`
}

// ExpectedRun is one program's recorded outcome.
type ExpectedRun struct {
	Exit       int64  `json:"exit"`
	Output     string `json:"output"`
	Instret    int64  `json:"instret"`
	CheckExecs int64  `json:"check_execs"`
}

func progKey(name string, work int) string { return fmt.Sprintf("%s@%d", name, work) }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run carries one invocation's settings and what it has measured.
type Run struct {
	cfg      Config
	exp      Expected
	seed     int64
	rng      *rand.Rand
	duration time.Duration
	traced   bool
	tr       *Tracer

	attempted, failed int64
	problems          []string // correctness failures beyond per-op ones
	flags             []string // deterministic counts that drifted
	metrics           map[string]float64
}

func (r *Run) set(name string, v float64) { r.metrics[name] = v }

// report returns the metrics a run prints: with --trace 0 the
// end-to-end ones, with --trace 1 the per-layer ones, where a layer
// the workload does not exercise reads 0.
func (r *Run) report() map[string]Metric {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.name] = Metric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// fail records a failed operation with its reason (the first few
// reasons are printed).
func (r *Run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
	}
}

// problem records a failed whole-run correctness check.
func (r *Run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// flag records a deterministic count that differs from its recorded
// value; drift is reported, not failed, because a change to the
// instrumentation legitimately moves it.
func (r *Run) flag(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.flags = append(r.flags, msg)
	fmt.Fprintln(os.Stderr, "perfbench: count drift:", msg)
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "exec-suite, serve-mix or update-storm")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	secs := flag.Int("seconds", 36, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	record := flag.Bool("record", false, "run every program once and rewrite perfbench/expected.json")
	flag.Parse()

	r := &Run{
		seed:     *seed,
		rng:      rand.New(rand.NewSource(*seed)),
		duration: time.Duration(*secs) * time.Second,
		traced:   *trace == 1,
		metrics:  map[string]float64{},
	}
	if err := json.Unmarshal(configJSON, &r.cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: config.json:", err)
		return 2
	}
	if err := json.Unmarshal(expectedJSON, &r.exp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		return 2
	}
	if *record {
		if err := recordExpected(r, "perfbench/expected.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	workloads := map[string]func(*Run) error{
		"exec-suite":   execSuite,
		"serve-mix":    serveMix,
		"update-storm": updateStorm,
	}
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if r.traced {
		r.tr = NewTracer()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if err := fn(r); err != nil {
		// A set-up or harness error yields no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	if r.traced {
		r.set("bench.count_drift", float64(len(r.flags)))
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *wl, *seed))
		if err := r.tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	res := Result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.report(),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timedSetup runs set-up reps times and reports the median wall time
// as setup_s; it returns the state of the last rep. Before each rep,
// cleanup releases what the previous rep built.
func timedSetup[T any](r *Run, reps int, setup func() (T, error), cleanup func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 && cleanup != nil {
			cleanup(last)
		}
		settle()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	r.set("setup_s", median(times))
	return last, nil
}

// settle collects garbage left by the previous phase so it is not
// charged to the next timed one.
func settle() { runtime.GC() }

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics with their units, in the
// order BENCHMARK.json gives them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"guest_minstr_per_s", "Minstr/s"},
}

var perLayer = []metricDef{
	{"toolchain.compile_ms", "ms"},
	{"toolchain.link_ms", "ms"},
	{"buildstore.probe_ms.p50", "ms"},
	{"buildstore.hit_ratio", "ratio"},
	{"server.admission_ms.p50", "ms"},
	{"cluster.queue_ms.p90", "ms"},
	{"server.unattributed_ms.p50", "ms"},
	{"server.rejected", "count"},
	{"server.cold_ms.p50", "ms"},
	{"mrt.new_ms.p50", "ms"},
	{"vm.run_ms.p50", "ms"},
	{"vm.run_ms.p90", "ms"},
	{"vm.minstr_per_s", "Minstr/s"},
	{"vm.instret", "count"},
	{"vm.check_execs", "count"},
	{"vm.verdict_hit_ratio", "ratio"},
	{"vm.icache_fills", "count"},
	{"vm.jit_block_runs", "count"},
	{"rewrite.instret_overhead_pct", "%"},
	{"mrt.dlopen_ms.p50", "ms"},
	{"mrt.dlopen_ms.p90", "ms"},
	{"mrt.dlsym_ms.p50", "ms"},
	{"mrt.dlsym_ms.p90", "ms"},
	{"mrt.dlopen_ms.q1_p50", "ms"},
	{"mrt.dlopen_ms.q4_p50", "ms"},
	{"mrt.delta_publishes", "count"},
	{"mrt.full_publishes", "count"},
	{"tables.updates", "count"},
	{"tables.retries_per_update", "ratio"},
	{"update.lag_ms.p90", "ms"},
	{"trace.overhead_pct", "%"},
	{"self_ms.bench", "ms"},
	{"self_ms.toolchain", "ms"},
	{"self_ms.mrt", "ms"},
	{"self_ms.vm", "ms"},
	{"self_ms.http", "ms"},
	{"self_ms.server", "ms"},
	{"self_ms.cluster", "ms"},
	{"self_ms.buildstore", "ms"},
	{"bench.count_drift", "count"},
}
