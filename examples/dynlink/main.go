// Dynamic-linking demo: the paper's central scenario — a multithreaded
// program dlopens a library while worker threads keep executing
// checked indirect branches. The runtime generates a new CFG from the
// merged type information and publishes it with one update transaction
// (Tary, barrier, GOT, barrier, Bary); concurrent check transactions
// retry through the version change and never observe a mixed policy.
//
//	go run ./examples/dynlink
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
)

const mainSrc = `
// Worker threads hammer a function-pointer table while the main thread
// dynamically links a plugin and calls into it.
long work(long n) {
	long acc = 0;
	long (*square)(long) = 0;
	for (long i = 0; i < n; i++) {
		acc += i & 7;
		acc &= 0xFFFF;
	}
	return acc;
}

int main(void) {
	long t1 = thread_spawn(work, 150000);
	long t2 = thread_spawn(work, 150000);

	long h = dlopen("plugin");
	if (h == 0) { puts("dlopen failed"); return 1; }
	puts("plugin linked");

	long addr = dlsym(h, "plugin_transform");
	if (addr == 0) { puts("dlsym failed"); return 2; }
	long (*transform)(long) = (long (*)(long))addr;

	long r = transform(41);
	printf("plugin_transform(41) = %ld\n", r);

	printf("workers: %ld %ld\n", thread_join(t1), thread_join(t2));
	return 0;
}`

const pluginSrc = `
static long plugin_calls = 0;
long plugin_transform(long x) {
	plugin_calls++;
	return x * 2 + plugin_calls;
}`

func main() {
	b := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	)
	img, err := b.Build(toolchain.Source{Name: "host", Text: mainSrc})
	if err != nil {
		log.Fatal(err)
	}
	plugin, err := b.Compile(toolchain.Source{Name: "plugin", Text: pluginSrc})
	if err != nil {
		log.Fatal(err)
	}

	rt, err := mrt.New(img, mrt.Options{Out: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Release()
	rt.RegisterLibrary(plugin)

	before := rt.Graph().Stats
	fmt.Printf("policy before dlopen: IBs=%d IBTs=%d EQCs=%d\n",
		before.IBs, before.IBTs, before.EQCs)

	// Add host-side update pressure (the Fig. 6 experiment's 50 Hz
	// re-versioning) while the guest runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
			}
		}
	}()

	code, err := rt.Run(0)
	close(stop)
	wg.Wait()
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	after := rt.Graph().Stats
	fmt.Printf("policy after dlopen:  IBs=%d IBTs=%d EQCs=%d\n",
		after.IBs, after.IBTs, after.EQCs)
	fmt.Printf("exit %d; %d instructions; %d update transactions; %d check retries\n",
		code, rt.Instret(), rt.Tables.Updates(), rt.Tables.Retries())
}
