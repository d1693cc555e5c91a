// Command tripgen generates a synthetic Mobike-schema trip CSV, the
// dataset substitution described in DESIGN.md. The output round-trips
// through the same codec that reads the real dataset.
//
// Usage:
//
//	tripgen [-days 14] [-weekday 2000] [-weekend 1400] [-bikes 600]
//	        [-seed 1] [-surge day:hour:trips] [-o trips.csv]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/geo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tripgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tripgen", flag.ContinueOnError)
	days := fs.Int("days", 14, "days to generate")
	weekday := fs.Int("weekday", 2000, "trips per weekday")
	weekend := fs.Int("weekend", 1400, "trips per weekend day")
	bikes := fs.Int("bikes", 600, "fleet size")
	seed := fs.Uint64("seed", 1, "random seed")
	surgeSpec := fs.String("surge", "", "optional demand surge day:hour:trips (e.g. 5:19:300)")
	out := fs.String("o", "", "output file (stdout when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := dataset.Config{
		Days:         *days,
		TripsWeekday: *weekday,
		TripsWeekend: *weekend,
		Bikes:        *bikes,
		Seed:         *seed,
	}
	if *surgeSpec != "" {
		surge, err := parseSurge(*surgeSpec)
		if err != nil {
			return err
		}
		cfg.Surges = []dataset.Surge{surge}
	}
	if *out == "" {
		_, err := writeCSV(stdout, cfg)
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	total, err := writeFile(f, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trips to %s\n", total, *out)
	return nil
}

// writeFile writes cfg's CSV to w and closes it. A write-back failure
// can surface only at Close; dropping it would leave a short CSV behind
// a zero exit status, so it is joined with any earlier error.
func writeFile(w io.WriteCloser, cfg dataset.Config) (int, error) {
	total, err := writeCSV(w, cfg)
	return total, errors.Join(err, w.Close())
}

// writeCSV streams cfg's trips to w one day at a time, so peak memory is
// a single day of trips regardless of -days; the bytes are identical to
// Generate + WriteCSV because days are generated and sorted in order,
// and each day's geohashes are filled as Generate fills them. The header
// is written on the first emit so a config error still produces no
// output at all.
func writeCSV(w io.Writer, cfg dataset.Config) (int, error) {
	cw := dataset.NewCSVWriter(w)
	var total int
	wroteHeader := false
	err := dataset.GenerateStream(cfg, func(_ int, trips []dataset.Trip) error {
		if !wroteHeader {
			if err := cw.WriteHeader(); err != nil {
				return err
			}
			wroteHeader = true
		}
		total += len(trips)
		dataset.FillGeohashes(cfg, trips)
		return cw.WriteTrips(trips)
	})
	if err != nil {
		return 0, fmt.Errorf("generate: %w", err)
	}
	if !wroteHeader {
		if err := cw.WriteHeader(); err != nil {
			return 0, fmt.Errorf("write csv: %w", err)
		}
	}
	if err := cw.Flush(); err != nil {
		return 0, fmt.Errorf("write csv: %w", err)
	}
	return total, nil
}

func parseSurge(spec string) (dataset.Surge, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return dataset.Surge{}, fmt.Errorf("surge spec %q is not day:hour:trips", spec)
	}
	day, err := strconv.Atoi(parts[0])
	if err != nil {
		return dataset.Surge{}, fmt.Errorf("surge day: %w", err)
	}
	hour, err := strconv.Atoi(parts[1])
	if err != nil {
		return dataset.Surge{}, fmt.Errorf("surge hour: %w", err)
	}
	trips, err := strconv.Atoi(parts[2])
	if err != nil {
		return dataset.Surge{}, fmt.Errorf("surge trips: %w", err)
	}
	hourEnd := hour + 2
	if hourEnd > 23 {
		hourEnd = 23
	}
	return dataset.Surge{
		Day: day, HourStart: hour, HourEnd: hourEnd,
		Center: geo.Pt(2600, 2600), Sigma: 120, Trips: trips,
	}, nil
}
