package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchsuite"
	"repro/internal/parallel"
)

// runCompare implements the `compare` subcommand: re-measure the gated
// sections of internal/benchsuite and diff them against a committed
// benchjson baseline.
//
//	esharing-bench compare -baseline BENCH_compute.json [-tolerance 0.25] [-out fresh.json]
//
// A section whose fresh ns/op exceeds the baseline by more than the
// tolerance fails the run (exit 1); sections present on only one side —
// a new benchmark, or one deleted without refreshing the baseline — are
// warned about but do not fail, so adding a section and regenerating the
// baseline can land in the same change. Improvements never fail: the
// gate is one-sided by design, catching "the solver got slower" without
// punishing noise in the fast direction. A section that fails to run
// fails the comparison.
func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("esharing-bench compare", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_compute.json", "committed benchjson baseline to diff against")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op regression per section")
	outPath := fs.String("out", "", "also write the fresh benchjson records to this file")
	parallelism := fs.Int("parallelism", 0,
		"worker count for the deterministic compute engine; 0 keeps the "+parallel.EnvVar+"/GOMAXPROCS default")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("compare: unexpected arguments %v", fs.Args())
	}
	if *tolerance < 0 {
		return fmt.Errorf("compare: tolerance must be non-negative, got %v", *tolerance)
	}
	if *parallelism > 0 {
		parallel.SetDefault(*parallelism)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("compare: read baseline: %w", err)
	}
	var baseline []benchsuite.Record
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("compare: parse baseline %s: %w", *baselinePath, err)
	}

	fmt.Fprintf(out, "compare: measuring %s sections at parallelism %d (tolerance %.0f%%)\n",
		*baselinePath, parallel.Default(), *tolerance*100)
	fresh, err := benchsuite.Measure(benchsuite.Sections())
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("compare: write fresh records: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			f.Close()
			return fmt.Errorf("compare: encode fresh records: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("compare: write fresh records: %w", err)
		}
	}

	baseNs := make(map[string]int64, len(baseline))
	for _, r := range baseline {
		baseNs[r.Section] = r.Ns
	}
	freshSeen := make(map[string]bool, len(fresh))
	var regressions []string
	for _, r := range fresh {
		freshSeen[r.Section] = true
		base, tracked := baseNs[r.Section]
		if !tracked {
			fmt.Fprintf(out, "  WARN new section %-28s %12dns (no baseline; refresh %s)\n",
				r.Section, r.Ns, *baselinePath)
			continue
		}
		delta := float64(r.Ns-base) / float64(base)
		status := "ok"
		if float64(r.Ns) > float64(base)*(1+*tolerance) {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %dns -> %dns (%+.1f%%, tolerance %.0f%%)",
					r.Section, base, r.Ns, delta*100, *tolerance*100))
		}
		fmt.Fprintf(out, "  %-10s %-28s %12dns -> %12dns  %+7.1f%%\n",
			status, r.Section, base, r.Ns, delta*100)
	}
	for _, r := range baseline {
		if !freshSeen[r.Section] {
			fmt.Fprintf(out, "  WARN removed section %-24s (baselined at %dns; refresh %s)\n",
				r.Section, r.Ns, *baselinePath)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(out, "compare: %d section(s) regressed\n", len(regressions))
		for _, line := range regressions {
			fmt.Fprintf(out, "  %s\n", line)
		}
		return fmt.Errorf("compare: %d section(s) regressed beyond %.0f%%", len(regressions), *tolerance*100)
	}
	fmt.Fprintf(out, "compare: all %d tracked section(s) within tolerance\n", len(fresh))
	return nil
}
