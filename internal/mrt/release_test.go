package mrt_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/vm"
)

// spinThreadsSrc keeps four guest threads (main plus three spawned)
// writing to their stacks and globals until they are cancelled.
const spinThreadsSrc = `
long counters[4];
long work(long slot) {
	long local[8];
	while (1) {
		local[slot] = local[slot] + 1;
		counters[slot] = local[slot];
	}
	return slot;
}
int main(void) {
	long t1 = thread_spawn(work, 1);
	long t2 = thread_spawn(work, 2);
	long t3 = thread_spawn(work, 3);
	work(0);
	thread_join(t1);
	thread_join(t2);
	thread_join(t3);
	return 0;
}`

// TestReleaseWhileCancelledGuestUnwinds releases a runtime while its
// guest threads are still running or unwinding from a cancellation.
// Release must wait for every thread before it frees guest memory: a
// thread that touched the freed mapping would fault the whole test
// binary (and, under -race, the heap fallback would report the race).
func TestReleaseWhileCancelledGuestUnwinds(t *testing.T) {
	img := build(t, toolchain.New(toolchain.WithInstrumentation()),
		toolchain.Source{Name: "spinthreads", Text: spinThreadsSrc})
	for i := 0; i < 5; i++ {
		rt := newRT(t, img, mrt.Options{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := rt.RunContext(ctx, 0)
			done <- err
		}()
		// Let the guest spawn its threads and get going.
		deadline := time.Now().Add(10 * time.Second)
		for rt.Instret() < 200_000 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if rt.Instret() < 200_000 {
			t.Fatalf("guest made no progress: instret %d", rt.Instret())
		}
		// Odd rounds cancel first, so Release lands mid-unwind; even
		// rounds let Release do the cancelling itself.
		if i%2 == 1 {
			cancel()
		}
		rt.Release()
		if rt.Proc.Mem != nil {
			t.Fatal("Release left guest memory mapped")
		}
		select {
		case err := <-done:
			if !errors.Is(err, vm.ErrCancelled) {
				t.Fatalf("RunContext = %v, want vm.ErrCancelled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunContext did not return after Release")
		}
		cancel()
		// Counters stay readable after Release.
		if rt.Instret() == 0 || rt.Tables.Updates() == 0 {
			t.Errorf("counters lost: instret %d updates %d", rt.Instret(), rt.Tables.Updates())
		}
	}
}

// TestDoubleRelease: Release is idempotent, including when two
// goroutines race to call it.
func TestDoubleRelease(t *testing.T) {
	img := build(t, toolchain.New(toolchain.WithInstrumentation()),
		toolchain.Source{Name: "main", Text: dlMainSrc})
	rt := newRT(t, img, mrt.Options{})
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Release()
		}()
	}
	wg.Wait()
	rt.Release()
	if rt.Proc.Mem != nil {
		t.Fatal("guest memory survived Release")
	}
}

// TestUseAfterRelease: every entry point that would touch guest memory
// or the tables returns ErrReleased instead of faulting.
func TestUseAfterRelease(t *testing.T) {
	b := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, b, toolchain.Source{Name: "main", Text: dlMainSrc})
	plugin, err := b.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(plugin)
	h, err := rt.Dlopen("plugin")
	if err != nil {
		t.Fatal(err)
	}
	out := rt.Output()
	rt.Release()

	if _, err := rt.Run(1000); !errors.Is(err, mrt.ErrReleased) {
		t.Errorf("Run after Release = %v, want ErrReleased", err)
	}
	if _, err := rt.RunContext(context.Background(), 1000); !errors.Is(err, mrt.ErrReleased) {
		t.Errorf("RunContext after Release = %v, want ErrReleased", err)
	}
	if _, err := rt.MainThread(); !errors.Is(err, mrt.ErrReleased) {
		t.Errorf("MainThread after Release = %v, want ErrReleased", err)
	}
	if _, err := rt.Dlopen("plugin"); !errors.Is(err, mrt.ErrReleased) {
		t.Errorf("Dlopen after Release = %v, want ErrReleased", err)
	}
	if _, err := rt.Dlsym(h, "plugin_entry"); !errors.Is(err, mrt.ErrReleased) {
		t.Errorf("Dlsym after Release = %v, want ErrReleased", err)
	}
	if rt.Output() != out {
		t.Errorf("output changed across Release: %q -> %q", out, rt.Output())
	}
	if delta, full := rt.PublishStats(); delta+full < 2 {
		t.Errorf("publish stats lost: delta %d full %d", delta, full)
	}
}

// TestReleaseRacesDlopen: a host goroutine dlopens a series of
// libraries while another releases the runtime. Every load either
// completes before Release frees the sandbox or is refused with
// ErrReleased; none may touch freed memory.
func TestReleaseRacesDlopen(t *testing.T) {
	b := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, b, toolchain.Source{Name: "main", Text: dlMainSrc})
	const nlibs = 6
	libs := make([]*module.Object, nlibs)
	for i := range libs {
		obj, err := b.Compile(toolchain.Source{
			Name: fmt.Sprintf("race%d", i),
			Text: fmt.Sprintf("long race%d_fn(long x) { return x + %d; }\n", i, i),
		})
		if err != nil {
			t.Fatal(err)
		}
		libs[i] = obj
	}
	for round := 0; round < 8; round++ {
		rt := newRT(t, img, mrt.Options{})
		for _, obj := range libs {
			rt.RegisterLibrary(obj)
		}
		errs := make(chan error, nlibs)
		go func() {
			for i, obj := range libs {
				h, err := rt.Dlopen(obj.Name)
				if err == nil {
					_, err = rt.Dlsym(h, fmt.Sprintf("race%d_fn", i))
				}
				errs <- err
			}
		}()
		// Vary how far the loads get before Release lands.
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		rt.Release()
		refused := false
		for range libs {
			err := <-errs
			switch {
			case err == nil:
				if refused {
					t.Fatalf("round %d: a load succeeded after one was refused", round)
				}
			case errors.Is(err, mrt.ErrReleased):
				refused = true
			default:
				t.Fatalf("round %d: load failed: %v", round, err)
			}
		}
	}
}
