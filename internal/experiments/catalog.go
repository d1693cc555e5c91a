package experiments

import (
	"io"
	"slices"
)

// Renderable is an experiment result: Render writes the rows and series
// the paper reports, and every result also encodes as JSON.
type Renderable interface {
	Render(w io.Writer)
}

// Experiment is one entry of the evaluation catalog: a paper table or
// figure, or the DESIGN.md §5 ablation set.
type Experiment struct {
	// Name is the canonical name. Aliases are the figures the paper
	// derives from the same runs (fig9 is Table III's study).
	Name    string
	Aliases []string
	// Studies are the runs the experiment renders, in output order: one
	// for a table or figure, one per ablation.
	Studies []Study
}

// Study is one run of an experiment.
type Study struct {
	// Name labels the study within its experiment; it is empty when the
	// experiment has a single study.
	Name string
	// Run regenerates the study at its default configuration, or at its
	// quick one — the configuration esharing-bench -quick and the
	// repository benchmarks share.
	Run func(quick bool) (Renderable, error)
}

// study binds a runner to its default and quick configurations.
func study[C any, R Renderable](name string, def, quick func() C, run func(C) (R, error)) Study {
	return Study{Name: name, Run: func(q bool) (Renderable, error) {
		cfg := def()
		if q {
			cfg = quick()
		}
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
}

// single is the study list of a one-run table or figure.
func single[C any, R Renderable](def, quick func() C, run func(C) (R, error)) []Study {
	return []Study{study("", def, quick, run)}
}

// catalog lists the evaluation in `esharing-bench all` order. Figs. 4–7
// are cheap enough that their quick configuration is the default one.
var catalog = []Experiment{
	{Name: "fig4", Studies: single(DefaultFig4Config, DefaultFig4Config, RunFig4)},
	{Name: "fig5", Studies: single(DefaultFig5Config, DefaultFig5Config, RunFig5)},
	{Name: "fig6", Studies: single(DefaultFig6Config, DefaultFig6Config, RunFig6)},
	{Name: "fig7", Studies: single(DefaultFig7Config, DefaultFig7Config, RunFig7)},
	{Name: "fig8", Studies: single(DefaultFig8Config, QuickFig8Config, RunFig8)},
	{Name: "table2", Studies: single(DefaultTable2Config, QuickTable2Config, RunTable2)},
	{Name: "table3", Aliases: []string{"fig9"}, Studies: single(DefaultTable3Config, QuickTable3Config, RunTable3)},
	{Name: "table4", Studies: single(DefaultTable4Config, QuickTable4Config, RunTable4)},
	{Name: "table5", Aliases: []string{"fig10"}, Studies: single(DefaultTable5Config, QuickTable5Config, RunTable5)},
	{Name: "table6", Aliases: []string{"fig11", "fig12"}, Studies: single(DefaultTable6Config, QuickTable6Config, RunTable6)},
	{Name: "ablations", Studies: []Study{
		study("beta", DefaultAblationConfig, QuickAblationConfig, RunAblationBeta),
		study("penalty-switch", DefaultAblationConfig, QuickAblationConfig, RunAblationPenaltySwitch),
		study("guidance", DefaultAblationConfig, QuickAblationConfig, RunAblationGuidance),
		study("poly-penalty", DefaultAblationConfig, QuickAblationConfig, RunAblationPolyPenalty),
		study("local-search", DefaultAblationConfig, QuickAblationConfig, RunAblationLocalSearch),
		study("tsp", DefaultAblationConfig, QuickAblationConfig, RunAblationTSP),
		study("ks", DefaultAblationConfig, QuickAblationConfig, RunAblationKS),
	}},
}

// Catalog returns every experiment in `esharing-bench all` order.
func Catalog() []Experiment {
	return slices.Clone(catalog)
}

// Lookup resolves an experiment by name or alias.
func Lookup(name string) (Experiment, bool) {
	for _, e := range catalog {
		if e.Name == name || slices.Contains(e.Aliases, name) {
			return e, true
		}
	}
	return Experiment{}, false
}
