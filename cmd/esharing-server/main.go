// Command esharing-server runs the E-Sharing decision backend over HTTP.
//
// It plans offline landmarks from a synthetic (or CSV) trip history, then
// serves live placement decisions:
//
//	POST /v1/requests  {"dest":{"x":..,"y":..}}  -> parking decision
//	GET  /v1/stations                            -> established stations
//	GET  /v1/stats                               -> counters + similarity
//	GET  /healthz                                -> liveness
//
// A -trips-csv history of any size is streamed in one bounded-memory
// pass and kept only as projected destinations, never as trips; with
// several shards it is split into one exact-size array of per-shard
// histories.
//
// Usage:
//
//	esharing-server [-addr :8080] [-algorithm e-sharing|meyerson|online-kmeans]
//	                [-opening 10000] [-seed 1] [-trips-csv history.csv]
//	                [-max-inflight 256] [-pprof-addr :6060]
//	                [-shards 4] [-shard-precision 4]
//	                [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	                [-wal-dir /var/lib/esharing] [-wal-sync 1] [-wal-snapshot-every 4096]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("esharing-server: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("esharing-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	algorithm := fs.String("algorithm", "e-sharing", "placement algorithm: e-sharing, meyerson or online-kmeans")
	opening := fs.Float64("opening", 10000, "space-occupation cost per station (metres)")
	seed := fs.Uint64("seed", 1, "random seed")
	tripsCSV := fs.String("trips-csv", "", "optional Mobike-schema CSV with historical trips; synthetic history is generated when empty")
	historyDays := fs.Int("history-days", 7, "days of synthetic history when no CSV is given")
	fleetSize := fs.Int("fleet", 0, "register this many bikes at the planned stations and enable the tier-2 endpoints")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInFlight, "placement requests allowed to hold or queue for the decision locks (divided across shards); beyond this the server sheds with 429 + Retry-After")
	shards := fs.Int("shards", 1, "independent geo-sharded decision loops; requests route by the planar cell of their destination")
	shardPrecision := fs.Int("shard-precision", geo.DefaultShardPrecision, "planar cell precision for shard routing (1-12): 4 is ~one cell per city, 6-7 shards within a city")
	pprofAddr := fs.String("pprof-addr", "", "optional address to serve net/http/pprof on (disabled when empty)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "http.Server ReadTimeout")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	walDir := fs.String("wal-dir", "", "directory for the durable decision log; empty disables durability, an existing log is replayed on startup")
	walSync := fs.Int("wal-sync", 1, "fsync the decision log every N appends (1 = every decision, 0 = leave flushing to the OS)")
	walSnapshotEvery := fs.Uint64("wal-snapshot-every", 4096, "checkpoint placer state and truncate the log after this many records (0 disables snapshots)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	history, err := loadHistory(*tripsCSV, *historyDays, *seed)
	if err != nil {
		return fmt.Errorf("load history: %w", err)
	}
	log.Printf("loaded %d historical trip destinations", len(history))

	placers, err := buildPlacers(*algorithm, history, *opening, *seed, *shards, *shardPrecision)
	if err != nil {
		return err
	}
	stations := 0
	for _, p := range placers {
		stations += len(p.Stations())
	}
	log.Printf("algorithm %s ready with %d initial stations across %d shard(s)",
		placers[0].Name(), stations, len(placers))

	opts := []server.Option{
		server.WithMaxInFlight(*maxInflight),
		server.WithShardPrecision(*shardPrecision),
	}
	if *walDir != "" {
		opts = append(opts, server.WithWAL(*walDir, *walSync, *walSnapshotEvery))
	}
	var handler *server.Server
	if *fleetSize > 0 {
		fleet, err := buildFleet(allStations(placers), *fleetSize, *seed)
		if err != nil {
			return fmt.Errorf("build fleet: %w", err)
		}
		handler, err = server.NewShardedWithFleet(placers, fleet, opts...)
		if err != nil {
			return err
		}
		log.Printf("fleet of %d bikes registered; tier-2 endpoints enabled", *fleetSize)
	} else {
		handler, err = server.NewSharded(placers, opts...)
		if err != nil {
			return err
		}
	}
	if *walDir != "" {
		log.Printf("decision log at %s (%d records recovered)", *walDir, handler.WALRecords())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	if *pprofAddr != "" {
		// net/http/pprof registers on DefaultServeMux, which the API
		// server never serves, so profiling stays off the public port.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case sig := <-stop:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		// Close after Shutdown: no placement can be in flight, so the
		// final decision-log sync cannot race a request.
		if closeErr := handler.Close(); err == nil {
			err = closeErr
		}
		return err
	}
}

// loadHistory returns the planar end point of every historical trip —
// the only piece of a trip the offline plan and the placers consume. A
// CSV goes through dataset.ReadEndPoints: one streamed pass, never
// materialised as []dataset.Trip, projected around the data's own
// geohash bounding box (hard-coding Beijing would project any other
// city's trips hundreds of kilometres from the planar origin, far
// outside the tangent-plane regime). Peak memory is the scanner's
// O(ChunkSize × Workers) plus 16 B per row.
func loadHistory(csvPath string, days int, seed uint64) ([]geo.Point, error) {
	if csvPath == "" {
		trips, err := dataset.Generate(dataset.Config{Days: days, Seed: seed})
		if err != nil {
			return nil, err
		}
		return dataset.EndPoints(trips), nil
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	ends, err := dataset.ReadEndPoints(f, estimateRows(f))
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, err
	}
	return ends, nil
}

// estimateRows guesses a CSV's row count from its size and the line
// density of its first 64 KiB, with 1/32 headroom, so the end-point
// slice is allocated once: growing it by doubling would copy the whole
// history and raise peak memory by up to half again. A short guess
// costs only that growth; capacity past the last row is never touched.
func estimateRows(f *os.File) int {
	st, err := f.Stat()
	if err != nil || st.Size() <= 0 {
		return 0
	}
	head := make([]byte, min(st.Size(), 64<<10))
	// A failed read only loses the estimate; the scan reports it.
	n, _ := f.ReadAt(head, 0)
	lines := bytes.Count(head[:n], []byte{'\n'})
	if lines == 0 {
		return 0
	}
	rows := st.Size() * int64(lines) / int64(n)
	return int(rows + rows/32 + 1)
}

// buildPlacers builds one placer per shard. The historical trip
// destinations are partitioned the same way live requests will route —
// by planar cell — so each shard's offline landmarks are planned from
// exactly the demand it will serve. A shard whose partition came up
// empty plans from the full history instead (its engine must still be
// valid; it simply starts with out-of-region landmarks it will never be
// asked about). Seeds are staggered by shard index so the shards'
// online RNG streams are independent.
func buildPlacers(algorithm string, history []geo.Point, opening float64, seed uint64, shards, precision int) ([]core.OnlinePlacer, error) {
	if shards <= 1 {
		p, err := buildPlacer(algorithm, history, opening, seed)
		if err != nil {
			return nil, err
		}
		return []core.OnlinePlacer{p}, nil
	}
	parts := partitionByShard(history, precision, shards)
	placers := make([]core.OnlinePlacer, shards)
	for i := range placers {
		part := parts[i]
		if len(part) == 0 {
			part = history
		}
		p, err := buildPlacer(algorithm, part, opening, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		placers[i] = p
	}
	return placers, nil
}

// partitionByShard splits history by geo.ShardOf into parts that keep
// history's order, so each shard's history — and with it the shard's
// config digest in the decision log — is independent of how the split is
// done. One pass counts the parts and records each point's shard in a
// 1 B index; the second scatters into a single backing array cut to the
// counts. That is 17 B per point, where appending into per-shard slices
// re-copies each part as it grows.
func partitionByShard(history []geo.Point, precision, shards int) [][]geo.Point {
	if shards <= 1<<8 {
		return partitionBy[uint8](history, precision, shards)
	}
	return partitionBy[uint32](history, precision, shards)
}

func partitionBy[I uint8 | uint32](history []geo.Point, precision, shards int) [][]geo.Point {
	shardOf := make([]I, len(history))
	counts := make([]int, shards)
	for i, p := range history {
		s := geo.ShardOf(p, precision, shards)
		shardOf[i] = I(s)
		counts[s]++
	}
	backing := make([]geo.Point, len(history))
	parts := make([][]geo.Point, shards)
	off := 0
	for s, n := range counts {
		// Capacity is exactly the count, so the appends below fill the
		// part in place and never spill into its neighbour.
		parts[s] = backing[off : off : off+n]
		off += n
	}
	for i, p := range history {
		s := shardOf[i]
		parts[s] = append(parts[s], p)
	}
	return parts
}

// allStations concatenates the shards' initial stations in shard-index
// order (the same order /v1/stations serves them).
func allStations(placers []core.OnlinePlacer) []geo.Point {
	var out []geo.Point
	for _, p := range placers {
		out = append(out, p.Stations()...)
	}
	return out
}

func buildPlacer(algorithm string, dests []geo.Point, opening float64, seed uint64) (core.OnlinePlacer, error) {
	switch algorithm {
	case "e-sharing":
		landmarks, err := planLandmarks(dests, opening)
		if err != nil {
			return nil, fmt.Errorf("offline plan: %w", err)
		}
		cfg := core.DefaultESharingConfig()
		cfg.Seed = seed
		return core.NewESharing(landmarks, opening, dests, cfg)
	case "meyerson":
		return core.NewMeyerson(opening, seed)
	case "online-kmeans":
		return core.NewOnlineKMeans(16, seed)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algorithm)
	}
}

// buildFleet scatters bikes across the given stations with the
// Fig. 2(d) low-battery tail.
func buildFleet(stations []geo.Point, size int, seed uint64) (*energy.Fleet, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("no stations to park bikes at")
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed + 101)
	for i := 1; i <= size; i++ {
		st := stations[rng.IntN(len(stations))]
		if err := fleet.Add(energy.Bike{ID: int64(i), Loc: st, Level: 1}); err != nil {
			return nil, err
		}
	}
	if err := fleet.SeedLevels(stats.NewRNG(seed+102), 0.2); err != nil {
		return nil, err
	}
	return fleet, nil
}

func planLandmarks(dests []geo.Point, opening float64) ([]geo.Point, error) {
	// core.HistoryProblem's aggregation pads degenerate bounding boxes, so
	// a one-trip or collinear history plans fine instead of failing grid
	// validation.
	problem, err := core.HistoryProblem(dests, 100, opening)
	if err != nil {
		return nil, err
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		return nil, err
	}
	return problem.Stations(sol), nil
}
