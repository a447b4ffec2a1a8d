package toolchain

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mcfi/internal/buildstore"
	"mcfi/internal/codegen"
	"mcfi/internal/libc"
	"mcfi/internal/linker"
	"mcfi/internal/minic"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/sema"
	"mcfi/internal/visa"
)

// Builder is the MCFI build driver. It is constructed with functional
// options and is safe for concurrent use; Build compiles translation
// units in parallel and links against a memoized libc, so regenerating
// the full experiment suite compiles libc once per (profile,
// instrumentation) flavor instead of once per program.
//
//	b := toolchain.New(
//		toolchain.WithProfile(visa.Profile64),
//		toolchain.WithInstrumentation(),
//	)
//	img, err := b.Build(toolchain.Source{Name: "prog", Text: src})
type Builder struct {
	profile    visa.Profile
	instrument bool
	noPrelude  bool
	jobs       int
	cache      *LibcCache
	store      *buildstore.Tiered
	linkOpts   linker.Options
}

// Option configures a Builder.
type Option func(*Builder)

// New returns a Builder targeting Profile64, uninstrumented, with the
// libc prelude, the process-wide libc cache, and one compile job per
// CPU; options override each default.
func New(opts ...Option) *Builder {
	b := &Builder{
		profile: visa.Profile64,
		cache:   DefaultLibcCache(),
		jobs:    runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(b)
	}
	if b.profile != visa.Profile32 {
		b.profile = visa.Profile64
	}
	if b.jobs < 1 {
		b.jobs = 1
	}
	return b
}

// WithProfile selects the VISA profile (Profile32 or Profile64).
func WithProfile(p visa.Profile) Option {
	return func(b *Builder) { b.profile = p }
}

// WithInstrumentation enables MCFI instrumentation.
func WithInstrumentation() Option {
	return func(b *Builder) { b.instrument = true }
}

// WithInstrument sets instrumentation from a flag value (the
// programmatic form of WithInstrumentation).
func WithInstrument(on bool) Option {
	return func(b *Builder) { b.instrument = on }
}

// WithoutPrelude skips prepending the libc header to sources (used
// when compiling the libc itself or fully self-contained modules).
func WithoutPrelude() Option {
	return func(b *Builder) { b.noPrelude = true }
}

// WithLibcCache substitutes the compiled-libc cache (nil disables
// memoization).
func WithLibcCache(c *LibcCache) Option {
	return func(b *Builder) { b.cache = c }
}

// WithLinkOptions sets the linker options used by Build and Link.
func WithLinkOptions(o linker.Options) Option {
	return func(b *Builder) { b.linkOpts = o }
}

// WithJobs bounds the number of concurrent compile jobs in Build
// (default: GOMAXPROCS).
func WithJobs(n int) Option {
	return func(b *Builder) { b.jobs = n }
}

// WithStore attaches a build store: Build consults it (keyed by
// Fingerprint) before compiling and publishes fresh images into it,
// and Libc rides the store's object plane so per-flavor libc objects
// persist across processes. nil (the default) builds from source every
// time, memoizing only libc in-process.
func WithStore(s *buildstore.Tiered) Option {
	return func(b *Builder) { b.store = s }
}

// Profile reports the builder's target profile.
func (b *Builder) Profile() visa.Profile { return b.profile }

// Instrumented reports whether the builder instruments code.
func (b *Builder) Instrumented() bool { return b.instrument }

// Fingerprint returns a content hash identifying the image Build would
// produce for the given sources: it covers everything that affects the
// output — the builder flavor (profile, instrumentation, prelude),
// link options, and every source name and text. The pipeline is
// deterministic, so equal fingerprints mean identical images; this is
// the key for content-addressed build caches (mcfi-serve builds each
// distinct fingerprint once, no matter how many concurrent jobs
// request it).
func (b *Builder) Fingerprint(srcs ...Source) string {
	h := sha256.New()
	fmt.Fprintf(h, "mcfi-build-v1|profile=%d|instrument=%t|prelude=%t|unresolved=%t|noentry=%t\n",
		b.profile, b.instrument, !b.noPrelude,
		b.linkOpts.AllowUnresolved, b.linkOpts.NoEntry)
	for _, s := range srcs {
		// Length-prefixed fields keep (name, text) pairs unambiguous.
		fmt.Fprintf(h, "%d:%s|%d:", len(s.Name), s.Name, len(s.Text))
		io.WriteString(h, s.Text)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Compile runs parse+sema+codegen on one translation unit and returns
// its MCFI object module.
func (b *Builder) Compile(src Source) (*module.Object, error) {
	text := src.Text
	if !b.noPrelude {
		text = libc.Header + "\n" + text
	}
	file, err := minic.Parse(src.Name, text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	unit, err := sema.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	obj, err := codegen.Compile(unit, codegen.Options{
		Profile:    b.profile,
		Instrument: b.instrument,
		ModuleName: src.Name,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	return obj, nil
}

// Analyze runs parse+sema only, returning the typed unit the C1/C2
// analyzer consumes. The prelude is prepended unless the builder was
// constructed WithoutPrelude.
func (b *Builder) Analyze(src Source) (*sema.Unit, error) {
	text := src.Text
	if !b.noPrelude {
		text = libc.Header + "\n" + text
	}
	file, err := minic.Parse(src.Name, text)
	if err != nil {
		return nil, err
	}
	return sema.Analyze(file)
}

// Libc returns the compiled libc module for the builder's flavor,
// memoized in the configured cache. With a store attached, the cache
// miss path first consults the store's blob plane (keyed by flavor and
// libc source text), so a warm disk store means zero libc compiles
// even in a fresh process. Callers must not mutate the result.
func (b *Builder) Libc() (*module.Object, error) {
	compile := func() (*module.Object, error) {
		lb := *b
		lb.noPrelude = true
		return lb.Compile(Source{Name: "libc", Text: libc.Source})
	}
	if b.store != nil && b.store.BlobTiers() > 0 {
		local := compile
		compile = func() (*module.Object, error) {
			key := buildstore.HashKey(fmt.Sprintf(
				"mcfi-libc-obj-v1|profile=%d|instrument=%t|", b.profile, b.instrument) + libc.Source)
			var built *module.Object
			payload, _, err := b.store.GetOrBuildObject(key, func() ([]byte, error) {
				obj, err := local()
				if err != nil {
					return nil, err
				}
				built = obj
				return obj.Bytes(), nil
			})
			if err != nil {
				return nil, err
			}
			if built != nil {
				return built, nil
			}
			return module.Read(payload)
		}
	}
	if b.cache == nil {
		return compile()
	}
	return b.cache.get(b.profile, b.instrument, compile)
}

// Link combines compiled objects into an executable image using the
// builder's link options.
func (b *Builder) Link(objs ...*module.Object) (*linker.Image, error) {
	return linker.Link(objs, b.linkOpts)
}

// Build compiles the given sources (concurrently, bounded by the
// builder's job count), appends the memoized libc, and statically
// links everything into an executable image. With a store attached
// this is BuildTiered without the provenance.
func (b *Builder) Build(srcs ...Source) (*linker.Image, error) {
	img, _, err := b.BuildTiered(srcs...)
	return img, err
}

// BuildTiered is Build plus provenance: the returned Tier names where
// the image came from (a store tier, or buildstore.TierBuilt for a
// fresh compile — always TierBuilt when no store is attached).
func (b *Builder) BuildTiered(srcs ...Source) (*linker.Image, buildstore.Tier, error) {
	img, tier, _, err := b.BuildTraced(srcs...)
	return img, tier, err
}

// BuildPhases times one build's phases for the job tracer: the store
// probe (plus any wait on a coalesced in-flight build), and — on a
// miss — the parallel compile section and the link.
type BuildPhases struct {
	Tier      buildstore.Tier
	StoreNs   int64
	CompileNs int64
	LinkNs    int64
}

// BuildTraced is BuildTiered with per-phase timings.
func (b *Builder) BuildTraced(srcs ...Source) (*linker.Image, buildstore.Tier, BuildPhases, error) {
	var ph BuildPhases
	if b.store == nil {
		img, err := b.buildFromSource(&ph, srcs...)
		ph.Tier = buildstore.TierBuilt
		return img, buildstore.TierBuilt, ph, err
	}
	img, tier, bt, err := b.store.GetOrBuildTraced(b.Fingerprint(srcs...), func() (*linker.Image, error) {
		return b.buildFromSource(&ph, srcs...)
	})
	ph.Tier = tier
	ph.StoreNs = bt.ProbeNs + bt.WaitNs
	return img, tier, ph, err
}

// buildFromSource is the uncached compile+link pipeline. ph, when
// non-nil, receives the compile/link split.
func (b *Builder) buildFromSource(ph *BuildPhases, srcs ...Source) (*linker.Image, error) {
	start := time.Now()
	objs := make([]*module.Object, len(srcs)+1)
	errs := make([]error, len(srcs)+1)
	sem := make(chan struct{}, b.jobs)
	var wg sync.WaitGroup
	for i, s := range srcs {
		wg.Add(1)
		go func(i int, s Source) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			objs[i], errs[i] = b.Compile(s)
		}(i, s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lc, err := b.Libc()
		if err != nil {
			err = fmt.Errorf("libc: %w", err)
		}
		objs[len(srcs)], errs[len(srcs)] = lc, err
	}()
	wg.Wait()
	if ph != nil {
		ph.CompileNs = time.Since(start).Nanoseconds()
	}
	// Report the first failure in source order, like a sequential
	// driver would.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	start = time.Now()
	img, err := b.Link(objs...)
	if ph != nil {
		ph.LinkNs = time.Since(start).Nanoseconds()
	}
	return img, err
}

// Run builds and executes a program to completion, returning its exit
// code, captured output, and retired-instruction count.
func (b *Builder) Run(maxInstr int64, srcs ...Source) (code int64, output string, instret int64, err error) {
	img, err := b.Build(srcs...)
	if err != nil {
		return -1, "", 0, err
	}
	rt, err := mrt.New(img, mrt.Options{})
	if err != nil {
		return -1, "", 0, err
	}
	defer rt.Release()
	code, err = rt.Run(maxInstr)
	return code, rt.Output(), rt.Instret(), err
}
