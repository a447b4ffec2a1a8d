// Differential test of the build store's on-disk format: an image
// that round-trips through the content-addressed store (binary
// encoding + sealed blob envelope + disk publish/fetch) must be
// observationally identical to the freshly linked original under
// every execution engine — same exit code, output, and bit-identical
// retired-instruction count, and for a CFI-violating program the same
// fault with the same partial output.
package mcfi

import (
	"errors"
	"fmt"
	"testing"

	"mcfi/internal/buildstore"
	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// storeRoundTrip publishes img into a fresh disk store and fetches it
// back, so the copy has passed through the full at-rest format.
func storeRoundTrip(t *testing.T, img *linker.Image) *linker.Image {
	t.Helper()
	d, err := buildstore.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key := buildstore.HashKey("roundtrip|" + t.Name())
	if err := d.Put(key, img); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoreRoundTripEnginesIdentical runs a workload from both the
// original and the store-served image under every engine.
func TestStoreRoundTripEnginesIdentical(t *testing.T) {
	w, ok := workload.ByName("bzip2")
	if !ok {
		t.Fatal("bzip2 workload missing")
	}
	for _, profile := range []visa.Profile{visa.Profile64, visa.Profile32} {
		for _, instr := range []bool{false, true} {
			img, err := toolchain.New(
				toolchain.WithProfile(profile),
				toolchain.WithInstrument(instr),
			).Build(w.TestSource())
			if err != nil {
				t.Fatalf("%s instr=%v: build: %v", profile, instr, err)
			}
			stored := storeRoundTrip(t, img)
			for _, e := range vm.Engines() {
				orig := runClean(t, img, mrt.Options{Engine: e})
				copy := runClean(t, stored, mrt.Options{Engine: e})
				if orig != copy {
					t.Errorf("%s instr=%v engine %s: store round-trip diverges:\n  original: code=%d instret=%d out=%q\n  stored:   code=%d instret=%d out=%q",
						profile, instr, e,
						orig.code, orig.instret, orig.output,
						copy.code, copy.instret, copy.output)
				}
			}
		}
	}
}

// TestStoreRoundTripPreservesCFIFaults: a store-served image must
// still halt an attack identically — same fault kind, same retired
// count at the fault, same partial output — under every engine.
func TestStoreRoundTripPreservesCFIFaults(t *testing.T) {
	src := `
int evil_calls = 0;
void evil(void) { evil_calls = 1; }
void (*keep)(void) = evil;

long victim(long target) {
	long x = 0;
	long *p = &x;
	p[2] = target;
	return x;
}
int main(void) {
	puts("before");
	victim((long)evil);
	puts("survived");
	return 0;
}`
	img, err := toolchain.New(toolchain.WithInstrumentation()).
		Build(toolchain.Source{Name: "attack", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	stored := storeRoundTrip(t, img)

	type faultRun struct {
		kind    vm.FaultKind
		output  string
		instret int64
	}
	run := func(img *linker.Image, e vm.Engine) faultRun {
		rt, err := mrt.New(img, mrt.Options{Engine: e})
		if err != nil {
			t.Fatalf("engine %s: %v", e, err)
		}
		_, err = rt.Run(50_000_000)
		var f *vm.Fault
		if !errors.As(err, &f) || f.Kind != vm.FaultCFI {
			t.Fatalf("engine %s: want CFI fault, got %v (out %q)", e, err, rt.Output())
		}
		return faultRun{kind: f.Kind, output: rt.Output(), instret: rt.Instret()}
	}
	for _, e := range vm.Engines() {
		orig := run(img, e)
		copy := run(stored, e)
		if orig != copy {
			t.Errorf("engine %s: fault behavior diverges after round-trip:\n  original: %+v\n  stored:   %+v", e, orig, copy)
		}
		if orig.output != "before\n" {
			t.Errorf("engine %s: partial output %q, want %q", e, orig.output, "before\n")
		}
	}
}

// TestStoreRoundTripIsByteStable: encode → store → fetch → encode is
// the identity on bytes, for several distinct images.
func TestStoreRoundTripIsByteStable(t *testing.T) {
	for i, instr := range []bool{false, true} {
		img, err := toolchain.New(toolchain.WithInstrument(instr)).
			Build(toolchain.Source{Name: "p", Text: fmt.Sprintf(
				`int main(void){ printf("%%d\n", %d); return 0; }`, i)})
		if err != nil {
			t.Fatal(err)
		}
		a, err := img.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := storeRoundTrip(t, img).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("instr=%v: image bytes unstable across the store", instr)
		}
	}
}
