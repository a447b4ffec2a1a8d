package mrt_test

import (
	"strings"
	"sync"
	"testing"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

func build(t *testing.T, b *toolchain.Builder, srcs ...toolchain.Source) *linker.Image {
	t.Helper()
	img, err := b.Build(srcs...)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

func newRT(t *testing.T, img *linker.Image, opts mrt.Options) *mrt.Runtime {
	t.Helper()
	rt, err := mrt.New(img, opts)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Release)
	return rt
}

// TestReturnAddressCorruptionHalts is the core attack of the threat
// model: a memory write redirects a return to an address-taken
// function, and the MCFI return check must halt the program.
func TestReturnAddressCorruptionHalts(t *testing.T) {
	src := `
int evil_calls = 0;
void evil(void) { evil_calls = 1; }
void (*keep)(void) = evil;   // evil is address-taken (a plausible ROP target)

long victim(long target) {
	long x = 0;
	long *p = &x;
	// Frame layout: x at fp-8, saved fp at fp+0, return address at
	// fp+8 — so p[2] is the return address. This is exactly the
	// stack-smash primitive of the concurrent-attacker model.
	p[2] = target;
	return x;
}
int main(void) {
	victim((long)evil);
	puts("survived");
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "attack", Text: src})
	rt := newRT(t, img, mrt.Options{})
	_, err := rt.Run(50_000_000)
	f, ok := err.(*vm.Fault)
	if !ok || f.Kind != vm.FaultCFI {
		t.Fatalf("want CFI violation fault, got %v (output %q)", err, rt.Output())
	}
	if strings.Contains(rt.Output(), "survived") {
		t.Error("attack should not let the program continue")
	}
	// The same program without MCFI instrumentation is hijacked: the
	// return lands in evil (or at least does not fault with FaultCFI).
	cfgBase := toolchain.New()
	imgBase := build(t, cfgBase, toolchain.Source{Name: "attack", Text: src})
	rtBase := newRT(t, imgBase, mrt.Options{})
	_, errBase := rtBase.Run(50_000_000)
	if fb, ok := errBase.(*vm.Fault); ok && fb.Kind == vm.FaultCFI {
		t.Error("baseline build cannot raise CFI faults")
	}
}

// TestFunctionPointerTypeMismatchHalts mirrors the GnuPG scenario
// (§8.3): an attacker-controlled function pointer aimed at a function
// of a different type is stopped by type-matching CFI.
func TestFunctionPointerTypeMismatchHalts(t *testing.T) {
	src := `
int execve_like(char *path, char **argv) {
	puts("executing!");
	return 0;
}
int (*keep)(char *, char **) = execve_like;  // address-taken, as when linked with libc

void (*handler)(void);

int main(void) {
	// The attacker corrupts 'handler' to point at execve_like.
	handler = (void (*)(void))execve_like;
	handler();
	puts("survived");
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "gnupg", Text: src})
	rt := newRT(t, img, mrt.Options{})
	_, err := rt.Run(50_000_000)
	f, ok := err.(*vm.Fault)
	if !ok || f.Kind != vm.FaultCFI {
		t.Fatalf("want CFI violation, got %v (output %q)", err, rt.Output())
	}
	if strings.Contains(rt.Output(), "executing!") {
		t.Error("execve-like must not run")
	}
}

// TestMatchingFunctionPointerPasses is the complement: a legitimate
// same-type target is allowed.
func TestMatchingFunctionPointerPasses(t *testing.T) {
	src := `
int ok_calls = 0;
void handler_a(void) { ok_calls += 1; }
void handler_b(void) { ok_calls += 10; }
void (*handler)(void) = handler_a;
int main(void) {
	handler();
	handler = handler_b;
	handler();
	return ok_calls;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "ok", Text: src})
	rt := newRT(t, img, mrt.Options{})
	code, err := rt.Run(50_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 11 {
		t.Errorf("exit code = %d, want 11", code)
	}
}

const pluginSrc = `
long plugin_state = 7;
long plugin_entry(long x) { return x * plugin_state; }
long plugin_other(long x) { return x + 1000; }
`

const dlMainSrc = `
int main(void) {
	long h = dlopen("plugin");
	if (h == 0) { puts("dlopen failed"); return 1; }
	long addr = dlsym(h, "plugin_entry");
	if (addr == 0) { puts("dlsym failed"); return 2; }
	long (*fn)(long) = (long (*)(long))addr;   // the K2-style dlsym cast
	long r = fn(6);
	printf("%ld\n", r);
	return 0;
}`

// TestDlopenDlsym exercises the full dynamic-linking path: load,
// relocate, regenerate the CFG, update the tables, and call into the
// library through a checked function pointer.
func TestDlopenDlsym(t *testing.T) {
	for _, instr := range []bool{true, false} {
		cfg := toolchain.New(toolchain.WithInstrument(instr))
		img := build(t, cfg, toolchain.Source{Name: "main", Text: dlMainSrc})
		plugin, err := cfg.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
		if err != nil {
			t.Fatal(err)
		}
		rt := newRT(t, img, mrt.Options{})
		rt.RegisterLibrary(plugin)
		code, err := rt.Run(100_000_000)
		if err != nil {
			t.Fatalf("instrument=%v: %v (output %q)", instr, err, rt.Output())
		}
		if code != 0 || rt.Output() != "42\n" {
			t.Errorf("instrument=%v: code=%d output=%q", instr, code, rt.Output())
		}
		if instr && rt.Tables.Updates() < 2 {
			t.Errorf("expected at least 2 update transactions (load + dlopen), got %d", rt.Tables.Updates())
		}
	}
}

// TestDlopenGrowsCFG checks that dynamic linking extends the policy:
// the library's functions and branches enter the equivalence classes.
func TestDlopenGrowsCFG(t *testing.T) {
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "main", Text: dlMainSrc})
	plugin, err := cfg.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(plugin)
	before := rt.Graph().Stats
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	after := rt.Graph().Stats
	if after.IBs <= before.IBs {
		t.Errorf("IBs should grow after dlopen: %d -> %d", before.IBs, after.IBs)
	}
	if after.IBTs <= before.IBTs {
		t.Errorf("IBTs should grow after dlopen: %d -> %d", before.IBTs, after.IBTs)
	}
}

// TestPLTCall links a program with an unresolved function routed
// through an MCFI-instrumented PLT entry, loads the defining library at
// runtime, and calls through the PLT.
func TestPLTCall(t *testing.T) {
	mainSrc := `
long ext_mul(long a, long b);
int main(void) {
	long h = dlopen("extlib");
	if (h == 0) return 1;
	printf("%ld\n", ext_mul(6, 7));
	return 0;
}`
	extSrc := `
long ext_mul(long a, long b) { return a * b; }
`
	for _, instr := range []bool{true, false} {
		cfg := toolchain.New(toolchain.WithInstrument(instr),
			toolchain.WithLinkOptions(linker.Options{AllowUnresolved: true}))
		img := build(t, cfg, toolchain.Source{Name: "main", Text: mainSrc})
		if _, ok := img.PLT["ext_mul"]; !ok {
			t.Fatal("no PLT entry for ext_mul")
		}
		ext, err := cfg.Compile(toolchain.Source{Name: "extlib", Text: extSrc})
		if err != nil {
			t.Fatal(err)
		}
		rt := newRT(t, img, mrt.Options{})
		rt.RegisterLibrary(ext)
		code, err := rt.Run(100_000_000)
		if err != nil {
			t.Fatalf("instrument=%v: %v (out=%q)", instr, err, rt.Output())
		}
		if code != 0 || rt.Output() != "42\n" {
			t.Errorf("instrument=%v: code=%d out=%q", instr, code, rt.Output())
		}
	}
}

// TestPLTCallBeforeDlopenFaults: calling an unresolved import before
// its library is loaded must fault (GOT slot points at the null page),
// never silently succeed.
func TestPLTCallBeforeDlopenFaults(t *testing.T) {
	mainSrc := `
long ext_mul(long a, long b);
int main(void) {
	return (int)ext_mul(2, 3);
}`
	cfg := toolchain.New(toolchain.WithInstrumentation(),
		toolchain.WithLinkOptions(linker.Options{AllowUnresolved: true}))
	img := build(t, cfg, toolchain.Source{Name: "main", Text: mainSrc})
	rt := newRT(t, img, mrt.Options{})
	_, err := rt.Run(10_000_000)
	if err == nil {
		t.Fatal("unresolved PLT call should fault")
	}
}

// TestGuestThreads runs real concurrent guest threads through the
// spawn/join syscalls and the libc trampoline's checked indirect call.
func TestGuestThreads(t *testing.T) {
	src := `
long work(long n) {
	long sum = 0;
	for (long i = 1; i <= n; i++) sum += i;
	return sum;
}
int main(void) {
	long t1 = thread_spawn(work, 100);
	long t2 = thread_spawn(work, 200);
	long t3 = thread_spawn(work, 300);
	long total = thread_join(t1) + thread_join(t2) + thread_join(t3);
	printf("%ld\n", total);
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "threads", Text: src})
	rt := newRT(t, img, mrt.Options{})
	code, err := rt.Run(100_000_000)
	if err != nil {
		t.Fatalf("%v (out=%q)", err, rt.Output())
	}
	want := "70300\n" // 5050 + 20100 + 45150
	if code != 0 || rt.Output() != want {
		t.Errorf("code=%d out=%q want %q", code, rt.Output(), want)
	}
}

// TestConcurrentUpdatesDoNotBreakExecution is the Fig. 6 mechanism: a
// host thread re-versions all IDs continuously while the instrumented
// guest runs an indirect-branch-heavy loop. Execution must complete
// with the right answer (check transactions retry through updates).
func TestConcurrentUpdatesDoNotBreakExecution(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int (*ops[2])(int, int) = {add, sub};
int main(void) {
	int acc = 0;
	for (int i = 0; i < 30000; i++) {
		acc = ops[i & 1](acc, i & 15);
	}
	printf("%d\n", acc);
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "spin", Text: src})
	rt := newRT(t, img, mrt.Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.Tables.Reversion(tables.UpdateOpts{})
			}
		}
	}()
	code, err := rt.Run(500_000_000)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("run under concurrent updates: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if rt.Tables.Updates() < 10 {
		t.Logf("only %d updates happened during the run", rt.Tables.Updates())
	}
	t.Logf("updates=%d retries=%d", rt.Tables.Updates(), rt.Tables.Retries())
}

// TestWXEnforcement: guest attempts to map or reprotect memory both
// writable and executable must be refused (paper §4/§7 invariant).
func TestWXEnforcement(t *testing.T) {
	src := `
int main(void) {
	long rwx = __sys2(SYS_MMAP, 4096, 7);        // PROT_READ|WRITE|EXEC
	long rw = __sys2(SYS_MMAP, 4096, 3);         // PROT_READ|WRITE
	if (rwx != -1) return 1;                      // W+X must be refused
	if (rw == -1) return 2;                       // plain RW is fine
	long flip = __sys3(SYS_MPROTECT, rw, 4096, 5); // PROT_READ|EXEC
	if (flip != -1) return 3;                     // guest cannot make code
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "wx", Text: src})
	rt := newRT(t, img, mrt.Options{})
	code, err := rt.Run(10_000_000)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if code != 0 {
		t.Errorf("W^X test exited %d", code)
	}
	if err := rt.Proc.CheckWX(); err != nil {
		t.Errorf("W^X invariant violated: %v", err)
	}
}

// TestBaselineRunsWithoutTables: baseline builds must execute with no
// tables at all (no TLOAD instructions were emitted).
func TestBaselineRunsWithoutTables(t *testing.T) {
	src := `int main(void) { return 5; }`
	cfg := toolchain.New()
	img := build(t, cfg, toolchain.Source{Name: "b", Text: src})
	rt := newRT(t, img, mrt.Options{})
	if rt.Tables != nil {
		t.Error("baseline runtime should not allocate tables")
	}
	code, err := rt.Run(1_000_000)
	if err != nil || code != 5 {
		t.Errorf("code=%d err=%v", code, err)
	}
}

// TestDlsymMarksAddrTaken: before dlsym, a never-address-taken library
// function is not a legal indirect target; after dlsym it is.
func TestDlsymMarksAddrTaken(t *testing.T) {
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "main", Text: dlMainSrc})
	plugin, err := cfg.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(plugin)
	if code, err := rt.Run(100_000_000); err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	g := rt.Graph()
	entry, ok := rt.Symbol("plugin_entry")
	if !ok {
		t.Fatal("plugin_entry not in symbol table after dlopen")
	}
	if _, ok := g.TaryECN[int(entry.Addr)]; !ok {
		t.Error("plugin_entry should be a Tary target after dlsym")
	}
	other, _ := rt.Symbol("plugin_other")
	if _, ok := g.TaryECN[int(other.Addr)]; ok {
		t.Error("plugin_other was never dlsym'ed or address-taken; must not be a target")
	}
}

// TestABAQuiescenceReset checks the §5.2 ABA mitigation: update
// transactions raise the counter; once every live thread is observed
// at a system call after the latest update, the counter resets.
func TestABAQuiescenceReset(t *testing.T) {
	src := `
int main(void) {
	// Plenty of system calls, giving the runtime quiescence points.
	for (int i = 0; i < 50; i++) {
		char c = (char)('a' + i % 26);
		write(&c, 1);
	}
	return 0;
}`
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "aba", Text: src})
	rt := newRT(t, img, mrt.Options{})
	// Pile up update transactions before the program runs.
	for i := 0; i < 100; i++ {
		rt.Tables.Reversion(tables.UpdateOpts{})
	}
	if rt.Tables.UpdatesSinceQuiescence() < 100 {
		t.Fatalf("counter = %d, want >= 100", rt.Tables.UpdatesSinceQuiescence())
	}
	if code, err := rt.Run(10_000_000); err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	// The main thread's syscalls (with no updates in flight) must have
	// reset the counter.
	if got := rt.Tables.UpdatesSinceQuiescence(); got != 0 {
		t.Errorf("counter after quiescent syscalls = %d, want 0", got)
	}
}

// TestDlopenVerifierRejectsTamperedLibrary wires the independent
// verifier into the dlopen path (paper §6 step 2: code pages are
// "statically verified to obey the CFI policy" before becoming
// executable) and feeds it a tampered module.
func TestDlopenVerifierRejectsTamperedLibrary(t *testing.T) {
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "main", Text: dlMainSrc})
	plugin, err := cfg.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: replace the first instrumented branch with a raw ret.
	for _, ib := range plugin.Aux.IBs {
		if ib.Kind == module.IBRet {
			plugin.Code[ib.Offset] = 0x28 // RET
			plugin.Code[ib.Offset+1] = 0x00
			break
		}
	}
	rt := newRT(t, img, mrt.Options{
		Verify: func(obj *module.Object) error { return verifier.Verify(obj) },
	})
	rt.RegisterLibrary(plugin)
	code, err := rt.Run(50_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// dlopen fails inside the guest, which prints and exits 1.
	if code != 1 || !strings.Contains(rt.Output(), "dlopen failed") {
		t.Errorf("tampered plugin should fail to load: code=%d out=%q", code, rt.Output())
	}
}

// TestDlopenVerifierAcceptsCleanLibrary is the complement.
func TestDlopenVerifierAcceptsCleanLibrary(t *testing.T) {
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "main", Text: dlMainSrc})
	plugin, err := cfg.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{
		Verify: func(obj *module.Object) error { return verifier.Verify(obj) },
	})
	rt.RegisterLibrary(plugin)
	code, err := rt.Run(100_000_000)
	if err != nil || code != 0 {
		t.Fatalf("verified dlopen failed: code=%d err=%v out=%q", code, err, rt.Output())
	}
}

// TestDlopenDuplicateSymbolRejected: a library exporting a symbol the
// image already defines must be refused.
func TestDlopenDuplicateSymbolRejected(t *testing.T) {
	cfg := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg, toolchain.Source{Name: "main", Text: `
long clash(long x) { return x; }
int main(void) {
	long h = dlopen("dup");
	return h == 0 ? 0 : 1;   // load must fail
}`})
	dup, err := cfg.Compile(toolchain.Source{Name: "dup", Text: `
long clash(long x) { return x + 1; }
`})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(dup)
	code, err := rt.Run(50_000_000)
	if err != nil || code != 0 {
		t.Errorf("duplicate-symbol dlopen should fail cleanly: code=%d err=%v", code, err)
	}
}

// TestDlopenProfileMismatchRejected: a 32-bit library cannot be loaded
// into a 64-bit process.
func TestDlopenProfileMismatchRejected(t *testing.T) {
	cfg64 := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, cfg64, toolchain.Source{Name: "main", Text: `
int main(void) { return dlopen("p32") == 0 ? 0 : 1; }`})
	p32, err := toolchain.New(
		toolchain.WithProfile(visa.Profile32),
		toolchain.WithInstrumentation(),
	).Compile(toolchain.Source{Name: "p32", Text: `long f(long x) { return x; }`})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(p32)
	code, err := rt.Run(50_000_000)
	if err != nil || code != 0 {
		t.Errorf("profile-mismatched dlopen should fail cleanly: code=%d err=%v", code, err)
	}
}
