// Differential test of the VM execution engines: the block compiler —
// at its default threshold, compiling on first entry, at the race
// storms' threshold and cold-only (every instruction through the
// predecoded per-slot dispatch path) — must be observationally
// identical to the decode-every-instruction interpreter: same exit
// code, same output, a bit-identical retired-instruction count, and
// the same fault (kind, PC, check template, refused target) — across
// every workload, both VISA profiles, and both instrumentation
// flavors. The engine list comes from vm.Engines(), so an engine
// cannot silently drop out of the matrix.
package mcfi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// jitColdOnly is a block-compile threshold no run reaches: the block
// compiler then executes every instruction through per-slot dispatch.
const jitColdOnly = math.MaxUint32

// fastOptions returns the runtime settings every differential test
// holds to the interp reference: each non-reference engine at the
// default threshold, at 1 (compile on first entry), at 4 (the race
// storms' threshold) and cold-only.
func fastOptions() []mrt.Options {
	var opts []mrt.Options
	for _, e := range vm.Engines() {
		if e == vm.EngineInterp {
			continue
		}
		for _, th := range []int64{0, 1, 4, jitColdOnly} {
			opts = append(opts, mrt.Options{Engine: e, JITThreshold: th})
		}
	}
	return opts
}

// optsName names an engine setting in failure messages.
func optsName(o mrt.Options) string {
	switch {
	case o.Engine == vm.EngineInterp || o.JITThreshold == 0:
		return o.Engine.String()
	case o.JITThreshold == jitColdOnly:
		return o.Engine.String() + "@cold"
	}
	return fmt.Sprintf("%s@%d", o.Engine, o.JITThreshold)
}

// engineRun is everything a differential test compares: exit code,
// output, retired instructions, and the fault, if the run ended in one
// (Check and Target included, though Error() omits them).
type engineRun struct {
	code    int64
	output  string
	instret int64
	faulted bool
	fault   vm.Fault
}

// runWith runs img to completion under opts. A guest fault is recorded
// in the result; any other error fails the test.
func runWith(t *testing.T, img *linker.Image, opts mrt.Options) engineRun {
	t.Helper()
	rt, err := mrt.New(img, opts)
	if err != nil {
		t.Fatalf("engine %s: %v", optsName(opts), err)
	}
	code, err := rt.Run(2_000_000_000)
	r := engineRun{code: code, output: rt.Output(), instret: rt.Instret()}
	var f *vm.Fault
	switch {
	case errors.As(err, &f):
		r.faulted, r.fault = true, *f
	case err != nil:
		t.Fatalf("engine %s: %v (output %q)", optsName(opts), err, rt.Output())
	}
	return r
}

// runClean is runWith for programs that must exit without a fault.
func runClean(t *testing.T, img *linker.Image, opts mrt.Options) engineRun {
	t.Helper()
	r := runWith(t, img, opts)
	if r.faulted {
		t.Fatalf("engine %s: %v (output %q)", optsName(opts), &r.fault, r.output)
	}
	return r
}

// TestEnginesDifferential runs every workload under all engine
// settings in all four (profile, instrumentation) configurations.
func TestEnginesDifferential(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, profile := range []visa.Profile{visa.Profile64, visa.Profile32} {
				for _, instr := range []bool{false, true} {
					img, err := toolchain.New(
						toolchain.WithProfile(profile),
						toolchain.WithInstrument(instr),
					).Build(w.TestSource())
					if err != nil {
						t.Fatalf("%s instr=%v: build: %v", profile, instr, err)
					}
					// The workloads never dlopen, so one image can host
					// several runtimes.
					interp := runClean(t, img, mrt.Options{Engine: vm.EngineInterp})
					for _, o := range fastOptions() {
						got := runWith(t, img, o)
						if interp != got {
							t.Errorf("%s instr=%v: engines diverge:\n  interp: %+v\n  %s: %+v",
								profile, instr, interp, optsName(o), got)
						}
					}
					if interp.code != 0 {
						t.Errorf("%s instr=%v: exit %d (out %q)", profile, instr, interp.code, interp.output)
					}
				}
			}
		})
	}
}

// TestEnginesDifferentialFaults holds CFI violations to the same
// standard: each attack runs a hot legitimate loop first (so the block
// compiler has compiled code around the violating site) and must then
// halt with the identical fault — kind, PC, check template and refused
// target — after the identical retired count and partial output.
func TestEnginesDifferentialFaults(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"return-smash", `
int evil_calls = 0;
void evil(void) { evil_calls = 1; }
void (*keep)(void) = evil;
long victim(long target, long i) {
	long x = i;
	long *p = &x;
	if (i == 99) p[2] = target;
	return x;
}
int main(void) {
	long acc = 0;
	for (long i = 0; i < 100; i++) acc += victim((long)evil, i);
	printf("%ld\n", acc);
	return 0;
}`},
		{"fptr-type-mismatch", `
long add1(long x) { return x + 1; }
int execve_like(char *path, char **argv) { puts("executing!"); return 0; }
int (*keep)(char *, char **) = execve_like;
long (*op)(long) = add1;
int main(void) {
	long acc = 0;
	for (long i = 0; i < 100; i++) acc = op(acc);
	printf("%ld\n", acc);
	op = (long (*)(long))execve_like;
	return (int)op(acc);
}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			img, err := toolchain.New(toolchain.WithInstrumentation()).
				Build(toolchain.Source{Name: c.name, Text: c.src})
			if err != nil {
				t.Fatal(err)
			}
			interp := runWith(t, img, mrt.Options{Engine: vm.EngineInterp})
			if !interp.faulted || interp.fault.Kind != vm.FaultCFI || interp.fault.Check != vm.CheckIndirect {
				t.Fatalf("interp: want an indirect-check CFI halt, got %+v", interp)
			}
			t.Logf("interp: %v (check %s, target %#x) after %d instructions",
				&interp.fault, interp.fault.Check, interp.fault.Target, interp.instret)
			for _, o := range fastOptions() {
				if got := runWith(t, img, o); got != interp {
					t.Errorf("engines diverge:\n  interp: %+v\n  %s: %+v", interp, optsName(o), got)
				}
			}
		})
	}
}

// TestEnginesDifferentialDlopen runs a dynamically linked workload —
// guest dlopen, dlsym, a checked call into the library, and a call
// through an MCFI-instrumented PLT entry — under every engine setting
// and demands bit-identical results: the dlopen path's update
// transactions, code-page protection flips, and site rebasing must not
// perturb instret on any engine. A second pass repeats the run under a
// continuous host-side update-transaction storm, where retry counts
// are scheduling-dependent, so only exit code and output are compared.
func TestEnginesDifferentialDlopen(t *testing.T) {
	mainSrc := `
long ext_mul(long a, long b);
int main(void) {
	long h = dlopen("extlib");
	if (h == 0) return 1;
	long addr = dlsym(h, "ext_add");
	if (addr == 0) return 2;
	long (*fn)(long, long) = (long (*)(long, long))addr;
	long acc = 0;
	for (int i = 0; i < 200; i++) {
		acc += ext_mul(i, 3);      /* through the PLT entry */
		acc += fn(acc, i);         /* through a checked fn pointer */
	}
	printf("%ld\n", acc);
	return 0;
}`
	extSrc := `
long ext_mul(long a, long b) { return a * b; }
long ext_add(long a, long b) { return (a + b) & 0xFFFF; }
`
	cfg := toolchain.New(
		toolchain.WithInstrumentation(),
		toolchain.WithLinkOptions(linker.Options{AllowUnresolved: true}),
	)
	img, err := cfg.Build(toolchain.Source{Name: "main", Text: mainSrc})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := cfg.Compile(toolchain.Source{Name: "extlib", Text: extSrc})
	if err != nil {
		t.Fatal(err)
	}

	run := func(o mrt.Options, storm bool) (engineRun, vm.CheckStats) {
		t.Helper()
		rt, err := mrt.New(img, o)
		if err != nil {
			t.Fatalf("engine %s: %v", optsName(o), err)
		}
		rt.RegisterLibrary(ext)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
					}
				}
			}()
		}
		code, err := rt.Run(2_000_000_000)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("engine %s storm=%v: %v (output %q)", optsName(o), storm, err, rt.Output())
		}
		return engineRun{code: code, output: rt.Output(), instret: rt.Instret()},
			rt.Proc.CheckStatsSnapshot()
	}

	interpOpts := mrt.Options{Engine: vm.EngineInterp}
	interp, _ := run(interpOpts, false)
	if interp.code != 0 {
		t.Fatalf("dlopen workload exits %d (output %q)", interp.code, interp.output)
	}
	for _, o := range fastOptions() {
		got, st := run(o, false)
		if interp != got {
			t.Errorf("quiet dlopen run diverges:\n  interp: %+v\n  %s: %+v", interp, optsName(o), got)
		}
		// The PLT call sites must execute as fused superinstructions,
		// not per-instruction fallback.
		if st.PLTExecs == 0 {
			t.Errorf("engine %s: PLTExecs = 0, want > 0 (PLT checks fell back to per-instruction)", optsName(o))
		}
	}
	for _, o := range append([]mrt.Options{interpOpts}, fastOptions()...) {
		got, _ := run(o, true)
		if got.code != interp.code || got.output != interp.output {
			t.Errorf("dlopen run under update storm diverges on %s: code=%d output=%q (want code=%d output=%q)",
				optsName(o), got.code, got.output, interp.code, interp.output)
		}
	}
}

// TestEngineFlagParsing pins the -engine flag surface of mcfi-run,
// mcfi-bench and mcfi-load, and mcfi-serve's request validation, to
// the vm package's parser: exactly two engines, blockjit the default,
// and the retired cached, fused and threaded engines refused with the
// enumerated error.
func TestEngineFlagParsing(t *testing.T) {
	if got := fmt.Sprint(vm.Engines()); got != "[interp blockjit]" {
		t.Errorf("vm.Engines() = %s, want [interp blockjit]", got)
	}
	// The zero value — what a Process gets when SetEngine is never
	// called, and what mrt.Options{} selects — is the default engine.
	if vm.Engine(0) != vm.EngineBlockJIT {
		t.Errorf("zero-value engine = %v, want blockjit", vm.Engine(0))
	}
	for _, c := range []struct {
		in   string
		want vm.Engine
	}{
		{"", vm.EngineBlockJIT}, // the default engine
		{"interp", vm.EngineInterp},
		{"blockjit", vm.EngineBlockJIT},
	} {
		got, err := vm.ParseEngine(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// Every name in the shared list round-trips through the parser.
	for _, name := range vm.EngineNames() {
		e, err := vm.ParseEngine(name)
		if err != nil || e.String() != name {
			t.Errorf("EngineNames entry %q does not round-trip: %v %v", name, e, err)
		}
	}
	// Unknown names — the retired engines included — fail with an
	// error enumerating exactly that list, the single source CLI flags
	// and server-side validation quote; flag parsing rejects them too.
	want := strings.Join(vm.EngineNames(), ", ")
	for _, name := range []string{"cached", "fused", "threaded", "jit"} {
		if _, err := vm.ParseEngine(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseEngine(%q) error %v does not enumerate %q", name, err, want)
		}
		var f vm.EngineFlag
		if err := f.Set(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("EngineFlag.Set(%q) error %v does not enumerate %q", name, err, want)
		}
	}
}
