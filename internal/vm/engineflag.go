package vm

import (
	"fmt"
	"strings"
)

// Engine selection, shared by every front end (mcfi-run, mcfi-bench,
// mcfi-load CLI flags and mcfi-serve request validation), so the set
// of valid names, the error message enumerating them, and the flag
// help text all come from one place.

// Engine selects how a Process executes guest code.
type Engine int

// Engines. The zero value is the block compiler, so every Process —
// and every mrt.Options{} — runs the one fast path by default; the
// plain interpreter remains as the independent reference semantics
// the differential tests compare against.
const (
	// EngineBlockJIT dispatches cold code through the per-slot handlers
	// of the predecoded instruction cache (cache.go, threaded.go), with
	// check transactions fused into superinstructions (fused.go), and
	// compiles hot straight-line blocks into pre-bound traces
	// (blockjit.go).
	EngineBlockJIT Engine = iota
	// EngineInterp decodes raw bytes at every retired instruction.
	EngineInterp
)

// Engines returns every engine: the reference interpreter, then the
// fast path. Differential tests iterate this list so an engine cannot
// silently drop out of coverage.
func Engines() []Engine {
	return []Engine{EngineInterp, EngineBlockJIT}
}

// EngineNames returns the flag names of every engine, in Engines()
// order — the single source for ParseEngine errors, CLI flag help, and
// server-side request validation.
func EngineNames() []string {
	es := Engines()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.String()
	}
	return names
}

// String names the engine (the -engine flag syntax).
func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "blockjit"
}

// ParseEngine parses the -engine flag syntax; the empty string selects
// the default engine.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineBlockJIT, nil
	}
	for _, e := range Engines() {
		if s == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("vm: unknown engine %q (want one of: %s)", s, strings.Join(EngineNames(), ", "))
}

// EngineUsage returns flag help text for an -engine flag.
func EngineUsage() string {
	return "execution engine: " + strings.Join(EngineNames(), ", ")
}

// EngineFlag is a flag.Value for -engine flags:
//
//	var engine vm.Engine // the default engine
//	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
//
// Invalid names fail at flag-parse time with the same enumerated
// error ParseEngine gives everywhere else.
type EngineFlag Engine

func (f *EngineFlag) String() string { return Engine(*f).String() }

// Set implements flag.Value.
func (f *EngineFlag) Set(s string) error {
	e, err := ParseEngine(s)
	if err != nil {
		return err
	}
	*f = EngineFlag(e)
	return nil
}

// Engine returns the selected engine.
func (f *EngineFlag) Engine() Engine { return Engine(*f) }
