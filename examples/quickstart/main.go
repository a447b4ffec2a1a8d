// Quickstart: compile a MiniC program with the MCFI toolchain, verify
// its instrumentation, link it against the MiniC libc, run it under
// the MCFI runtime, and inspect the control-flow policy it ran under.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
)

const program = `
// A tiny calculator that dispatches through a function-pointer table —
// every indirect call below runs an MCFI check transaction.
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }

int (*ops[3])(int, int) = {add, sub, mul};
char *names[3];

int main(void) {
	names[0] = "add"; names[1] = "sub"; names[2] = "mul";
	for (int i = 0; i < 3; i++) {
		printf("%s(9, 4) = %d\n", names[i], ops[i](9, 4));
	}
	return 0;
}`

func main() {
	b := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	)

	// 1. Compile: parse -> type-check -> instrumented VISA module with
	//    auxiliary type information.
	obj, err := b.Compile(toolchain.Source{Name: "calc", Text: program})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d bytes of code, %d indirect branches, %d functions\n",
		len(obj.Code), len(obj.Aux.IBs), len(obj.Aux.Funcs))

	// 2. Verify: the independent checker proves the instrumentation is
	//    intact before we trust the module.
	if err := verifier.Verify(obj); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("verified: check transactions, sandboxed stores, aligned targets")

	// 3. Link with libc (also an MCFI module, memoized per flavor) into
	//    one image.
	lc, err := b.Libc()
	if err != nil {
		log.Fatal(err)
	}
	img, err := linker.Link([]*module.Object{obj, lc}, linker.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linked: entry %#x, %d bytes of code\n", img.Entry, len(img.Code))

	// 4. Run under the MCFI runtime: ID tables are generated from the
	//    merged type information and published in one update
	//    transaction before the first instruction executes.
	rt, err := mrt.New(img, mrt.Options{Out: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Release()
	code, err := rt.Run(0)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Inspect the policy the program ran under.
	g := rt.Graph()
	fmt.Printf("exit %d after %d instructions\n", code, rt.Instret())
	fmt.Printf("policy: %d indirect branches, %d legal targets, %d equivalence classes\n",
		g.Stats.IBs, g.Stats.IBTs, g.Stats.EQCs)
	fmt.Printf("tables: %s\n", rt.Tables)
}
