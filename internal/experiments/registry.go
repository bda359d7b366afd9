package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one named experiment and renders it to w.
type Runner func(opts Options, w io.Writer) error

// Registry maps experiment ids to runners; used by cmd/hetexp.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig1":            runner(Fig1),
		"table1":          runner(Table1),
		"table2":          runner(Table2),
		"fig3":            runner(Fig3),
		"fig4":            runner(Fig4),
		"fig5":            runner(Fig5),
		"fig6":            runner(Fig6),
		"fig7":            runner(Fig7),
		"fig8":            runner(Fig8),
		"fig9":            runner(Fig9),
		"ablate-sampler":  runner(AblationSampler),
		"ablate-searcher": runner(AblationSearcher),
		"ablate-platform": runner(AblationPlatform),
	}
}

// runner adapts an experiment that returns a renderable result.
func runner[R interface{ Render(io.Writer) }](run func(Options) (R, error)) Runner {
	return func(o Options, w io.Writer) error {
		r, err := run(o)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

// Names returns the registered experiment ids in order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id.
func Run(id string, opts Options, w io.Writer) error {
	runner, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return runner(opts, w)
}

// RunAll executes every experiment in a stable order.
func RunAll(opts Options, w io.Writer) error {
	for _, id := range []string{"fig1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1"} {
		fmt.Fprintf(w, "==== %s ====\n", id)
		if err := Run(id, opts, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
