// JIT simulation: the paper's "rather extreme test" (§8.1) — code is
// installed on the fly, so the control-flow policy must be regenerated
// and republished frequently. The paper measured V8 installing code at
// a rate that makes indirect-branch executions outnumber CFG updates
// by ~10^8 : 1 and simulated updates at 50 Hz; here we dlopen a stream
// of freshly generated plugin modules while a guest worker keeps
// calling through checked function pointers, then report the ratio.
//
//	go run ./examples/jitsim
package main

import (
	"fmt"
	"log"
	"os"

	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
)

const hostSrc = `
enum { STAGES = 8 };

int main(void) {
	long total = 0;
	char name[8];
	strcpy(name, "jit0");
	for (int s = 0; s < STAGES; s++) {
		name[3] = (char)('0' + s);
		long h = dlopen(name);
		if (h == 0) { printf("dlopen %s failed\n", name); return 1; }
		long addr = dlsym(h, name);   // each stage exports its own entry
		if (addr == 0) { printf("dlsym %s failed\n", name); return 2; }
		long (*stage)(long) = (long (*)(long))addr;
		// hot loop through the freshly installed code
		for (int i = 0; i < 4000; i++) total += stage((long)i);
		total &= 0xFFFFFF;
		printf("stage %d installed, total=%ld\n", s, total);
	}
	return 0;
}`

// stageSource generates a fresh "JIT-compiled" module, different per
// stage (as a JIT would emit specialized code).
func stageSource(n int) toolchain.Source {
	name := fmt.Sprintf("jit%d", n)
	text := fmt.Sprintf(`
static long acc%d = %d;
long %s(long x) {
	acc%d = (acc%d * 31 + x) & 0xFFFF;
	return acc%d + %d * x;
}`, n, n*7+1, name, n, n, n, n+1)
	return toolchain.Source{Name: name, Text: text}
}

func main() {
	b := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	)
	img, err := b.Build(toolchain.Source{Name: "jit-host", Text: hostSrc})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := mrt.New(img, mrt.Options{Out: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Release()
	for s := 0; s < 8; s++ {
		obj, err := b.Compile(stageSource(s))
		if err != nil {
			log.Fatal(err)
		}
		rt.RegisterLibrary(obj)
	}

	code, err := rt.Run(0)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	g := rt.Graph()
	fmt.Printf("exit %d\n", code)
	fmt.Printf("%d instructions executed; %d policy updates (dlopen + dlsym republish)\n",
		rt.Instret(), rt.Tables.Updates())
	fmt.Printf("final policy: IBs=%d IBTs=%d EQCs=%d; check retries=%d\n",
		g.Stats.IBs, g.Stats.IBTs, g.Stats.EQCs, rt.Tables.Retries())
	fmt.Printf("instructions per update: %d (the paper's V8 measurement puts indirect\n",
		rt.Instret()/rt.Tables.Updates())
	fmt.Println("branches at ~10^8 per CFG update; frequent updates remain cheap because")
	fmt.Println("check transactions only retry while the relevant IDs are mid-update)")
}
