package main

import (
	"encoding/json"
	"io"

	"repro/internal/benchsuite"
)

// runBenchJSON measures the gated compute sections at the current
// parallelism and writes their records as JSON.
func runBenchJSON(out io.Writer) error {
	records, err := benchsuite.Measure(benchsuite.Sections())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
