package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mcfi/internal/toolchain"
)

// inputRand returns the generator of one generated input, a pure
// function of (seed, kind, index) whatever order inputs are made in.
func inputRand(seed int64, kind, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed<<32 ^ int64(kind)<<28 ^ int64(idx)))
}

// Kinds of generated input, one generator stream each.
const (
	coldInput = iota + 1
	pluginInput
)

// coldSource generates cold job idx of a seed: a MiniC program no
// server has seen, which folds an accumulator through a table of
// `funcs` step functions and a table of mixers of another
// function-pointer type. It returns the source and the output the
// program must print, computed here in Go rather than by the compiler
// under test.
func coldSource(seed int64, idx, funcs int) (toolchain.Source, string) {
	const mixers = 16
	rng := inputRand(seed, coldInput, idx)
	type step struct{ k1, k2, k3, sh, k4 int64 }
	steps := make([]step, funcs)
	mix := make([]int64, mixers)
	for i := range steps {
		steps[i] = step{1 + rng.Int63n(1<<20), rng.Int63n(1 << 16), 1 + rng.Int63n(7), 1 + rng.Int63n(5), rng.Int63n(255)}
	}
	for i := range mix {
		mix[i] = 1 + rng.Int63n(1000)
	}
	start := 1 + rng.Int63n(1<<20)
	name := fmt.Sprintf("cold%d", idx)

	var b strings.Builder
	fmt.Fprintf(&b, "// perfbench cold job: seed %d, variant %d\n", seed, idx)
	fmt.Fprintf(&b, "enum { NSTEPS = %d, NMIX = %d };\n", funcs, mixers)
	b.WriteString("typedef long (*step_fn)(long);\ntypedef long (*mix_fn)(long, long);\n\n")
	for i, s := range steps {
		fmt.Fprintf(&b, "static long step%d(long x) {\n\tlong a = x ^ %d;\n\ta = a * %d + %d;\n\ta += (a >> %d) & 1023;\n\treturn a + %d;\n}\n",
			i, s.k2, s.k3, s.k1, s.sh, s.k4)
	}
	for i, k := range mix {
		fmt.Fprintf(&b, "static long mix%d(long a, long b) { return a * %d + b; }\n", i, k)
	}
	b.WriteString("\nstatic step_fn steps[NSTEPS] = {\n")
	for i := range steps {
		fmt.Fprintf(&b, "\tstep%d,\n", i)
	}
	b.WriteString("};\nstatic mix_fn mixes[NMIX] = {\n")
	for i := range mix {
		fmt.Fprintf(&b, "\tmix%d,\n", i)
	}
	fmt.Fprintf(&b, `};

int main(void) {
	long acc = %d;
	for (int i = 0; i < NSTEPS; i++)
		acc = mixes[i %% NMIX](acc, steps[i](acc)) & 0xFFFFFF;
	printf("%s: %%ld\n", acc);
	return 0;
}
`, start, name)

	acc := start
	for i, s := range steps {
		a := acc ^ s.k2
		a = a*s.k3 + s.k1
		a += (a >> s.sh) & 1023
		acc = (acc*mix[i%mixers] + a + s.k4) & 0xFFFFFF
	}
	return toolchain.Source{Name: name, Text: b.String()}, fmt.Sprintf("%s: %d\n", name, acc)
}

// pluginSource generates plugin idx of a seed for the update storm: a
// few functions with seeded constants, none calling another, so that
// the dlsym of pN_fn publishes as a delta (a direct call would give
// pN_fn a published return class before its address is taken, and the
// flip would merge classes, forcing a full publication).
func pluginSource(seed int64, idx int) (toolchain.Source, string) {
	rng := inputRand(seed, pluginInput, idx)
	k := [4]int64{1 + rng.Int63n(1000), rng.Int63n(1 << 20), rng.Int63n(1 << 16), 1 + rng.Int63n(100)}
	name := fmt.Sprintf("p%d", idx)
	return toolchain.Source{Name: name, Text: fmt.Sprintf(`
long %[1]s_state = %[2]d;
long %[1]s_fn(long x) { return x * %[1]s_state + %[3]d; }
long %[1]s_aux(long x) { return x - %[4]d; }
long %[1]s_sum(long n) {
	long s = 0;
	for (long i = 0; i < n; i++) s += i * %[5]d;
	return s;
}
`, name, k[0], k[1], k[2], k[3])}, name + "_fn"
}
