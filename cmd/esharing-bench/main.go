// Command esharing-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	esharing-bench [-quick] [-json] [-parallelism N] <experiment ...>
//
// Experiment names come from the catalog in internal/experiments:
// fig4 fig5 fig6 fig7 fig8 table2 table3 table4 table5 table6 ablations,
// and `all` runs them in that order. fig9 is an alias of table3 (same
// study), fig10 of table5, and fig11/fig12 of table6 — the paper derives
// those figures from the same runs. -quick runs each experiment at its
// quick configuration, the one the repository benchmarks
// (BenchmarkExperiment) time.
//
// The benchjson pseudo-experiment measures the gated compute sections
// registered in internal/benchsuite — offline solver, KS, forecasting
// grid and CSV ingest — and emits {section, ns, allocs} records
// (committed as BENCH_compute.json and uploaded by CI).
//
// The compare subcommand re-measures those sections and diffs them
// against a committed baseline, failing on regressions:
//
//	esharing-bench compare -baseline BENCH_compute.json [-tolerance 0.25] [-out fresh.json]
//
// A section that fails to run makes benchjson and compare exit non-zero.
// CI runs compare as a required step of the test job; see README.md for
// the bench-gate workflow.
//
// -parallelism N bounds the deterministic compute fan-out (default:
// GOMAXPROCS). Output is bit-identical for every value; 1 runs fully
// sequentially.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esharing-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], out)
	}
	fs := flag.NewFlagSet("esharing-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink grids and trial counts for a fast pass")
	asJSON := fs.Bool("json", false, "emit structured JSON instead of rendered tables")
	parallelism := fs.Int("parallelism", 0,
		"worker count for the deterministic compute engine; 0 keeps the GOMAXPROCS default, 1 is fully sequential")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallelism > 0 {
		parallel.SetDefault(*parallelism)
	}
	names := fs.Args()
	if len(names) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment named; try: esharing-bench all")
	}
	if len(names) == 1 && names[0] == "benchjson" {
		// Machine-readable output only: no wall-time wrapper lines.
		return runBenchJSON(out)
	}
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, e := range experiments.Catalog() {
			names = append(names, e.Name)
		}
	}
	exps := make([]experiments.Experiment, len(names))
	for i, name := range names {
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		exps[i] = e
	}
	fmt.Fprintf(out, "[parallelism %d]\n\n", parallel.Default())
	total := time.Now()
	for i, e := range exps {
		start := time.Now()
		if err := runExperiment(e, *quick, *asJSON, out); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", names[i], time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(out, "[%d section(s) completed in %v]\n", len(names), time.Since(total).Round(time.Millisecond))
	return nil
}

// runExperiment renders every study of e; the studies of a multi-study
// experiment (the ablations) are separated by blank lines.
func runExperiment(e experiments.Experiment, quick, asJSON bool, out io.Writer) error {
	for _, s := range e.Studies {
		res, err := s.Run(quick)
		if err != nil {
			return err
		}
		if asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return err
			}
		} else {
			res.Render(out)
		}
		if len(e.Studies) > 1 {
			fmt.Fprintln(out)
		}
	}
	return nil
}
