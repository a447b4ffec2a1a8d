package main

import (
	"encoding/json"
	"fmt"
	"os"

	"mcfi/internal/toolchain"
	"mcfi/internal/workload"
)

// recordExpected runs every program the workloads check once and
// writes their outcomes to path: the exec-suite programs at their
// configured work and the serve-mix warm programs at reference input.
// Run it only when a program or the instrumentation changes on purpose.
func recordExpected(r *Run, path string) error {
	type entry struct {
		name string
		work int
	}
	var todo []entry
	for _, w := range workload.All() {
		todo = append(todo, entry{w.Name, r.cfg.ExecSuite.Work[w.Name]})
	}
	for _, name := range r.cfg.ServeMix.Warm {
		todo = append(todo, entry{name, 0})
	}
	exp := Expected{Programs: map[string]ExpectedRun{}}
	for _, e := range todo {
		w, ok := workload.ByName(e.name)
		if !ok {
			return fmt.Errorf("unknown program %q", e.name)
		}
		img, err := toolchain.New(toolchain.WithInstrumentation()).
			Build(toolchain.Source{Name: w.Name, Text: w.SourceWithWork(e.work)})
		if err != nil {
			return err
		}
		rt, code, _, _, err := runImage(img)
		if err != nil {
			return fmt.Errorf("%s: %w", progKey(e.name, e.work), err)
		}
		exp.Programs[progKey(e.name, e.work)] = ExpectedRun{
			Exit: code, Output: rt.Output(), Instret: rt.Instret(), CheckExecs: rt.CheckStats().Execs,
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
