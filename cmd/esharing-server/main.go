// Command esharing-server runs the E-Sharing decision backend over HTTP.
//
// It plans offline landmarks from a synthetic (or CSV) trip history, then
// serves live placement decisions from Algorithm 2, the online placer
// with the deviation penalty (the paper's baselines run in-process in
// esharing-bench, not behind the server):
//
//	POST /v1/requests  {"dest":{"x":..,"y":..}}  -> parking decision
//	GET  /v1/stations                            -> established stations
//	GET  /v1/stats                               -> counters + similarity
//	GET  /healthz                                -> liveness
//	GET  /metrics                                -> Prometheus text format
//
// Tier 2 (bikes, rides, charging rounds) is not served: its fleet would
// live only in memory, so it runs in-process through esharing.System.
//
// A -trips-csv history of any size is streamed in one bounded-memory
// pass and kept only as a multiset of projected destination places, each
// with its trip count, never as trips or rows; with several shards each
// shard plans from the places that route to it, the shards side by side.
//
// Usage:
//
//	esharing-server [-addr :8080] [-opening 10000] [-seed 1]
//	                [-trips-csv history.csv] [-history-days 7]
//	                [-max-inflight 256] [-pprof-addr :6060]
//	                [-shards 4] [-shard-precision 4]
//	                [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	                [-wal-dir /var/lib/esharing] [-wal-sync 1] [-wal-snapshot-every 4096]
package main

import (
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
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("esharing-server: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("esharing-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	opening := fs.Float64("opening", 10000, "space-occupation cost per station (metres)")
	seed := fs.Uint64("seed", 1, "random seed")
	tripsCSV := fs.String("trips-csv", "", "optional Mobike-schema CSV with historical trips; synthetic history is generated when empty")
	historyDays := fs.Int("history-days", 7, "days of synthetic history when no CSV is given")
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
	if *shards < 1 {
		return fmt.Errorf("-shards %d: want at least 1 shard", *shards)
	}
	if *historyDays < 1 {
		return fmt.Errorf("-history-days %d: want at least 1 day", *historyDays)
	}
	if *maxInflight < 1 {
		return fmt.Errorf("-max-inflight %d: want at least 1 request", *maxInflight)
	}
	if *shardPrecision < 1 || *shardPrecision > 12 {
		return fmt.Errorf("-shard-precision %d: want a precision in [1, 12]", *shardPrecision)
	}
	if *walSync < 0 {
		return fmt.Errorf("-wal-sync %d: want 0 (no explicit fsync) or more appends per fsync", *walSync)
	}

	history, err := loadHistory(*tripsCSV, *historyDays, *seed)
	if err != nil {
		return fmt.Errorf("load history: %w", err)
	}
	log.Printf("loaded %d historical trip destinations at %d distinct places", history.Total(), history.Len())

	placers, err := buildPlacers(history, *opening, *seed, *shards, *shardPrecision)
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
	handler, err := server.NewSharded(placers, opts...)
	if err != nil {
		return err
	}
	if *walDir != "" {
		replayed, restored := handler.WALRecovery()
		log.Printf("decision log at %s (%d records replayed; %d of %d shard(s) restored from a snapshot)",
			*walDir, replayed, restored, len(placers))
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

// loadHistory returns the planar end points of the historical trips as
// a multiset of places — the only piece of a trip the offline plan and
// the placers consume. The synthetic history is generated a day at a
// time: each day's trips, in a buffer the generator reuses, are reduced
// to their end points, and the end points are folded once, so the
// history is never held as trips. A CSV goes through
// dataset.ReadEndPoints: one streamed pass, never materialised as
// []dataset.Trip, folded into places as it is read and projected around
// the data's own geohash bounding box (hard-coding Beijing would project
// any other city's trips hundreds of kilometres from the planar origin,
// far outside the tangent-plane regime). Peak memory is the scanner's
// O(ChunkSize × Workers) plus O(distinct end cells) per worker; the row
// count does not enter it.
func loadHistory(csvPath string, days int, seed uint64) (geo.Multiset, error) {
	if csvPath == "" {
		var ends []geo.Point
		err := dataset.GenerateStream(dataset.Config{Days: days, Seed: seed}, func(_ int, day []dataset.Trip) error {
			if ends == nil {
				// The default calendar opens on a weekday, and weekend
				// days are lighter, so this rarely falls short.
				ends = make([]geo.Point, 0, len(day)*days)
			}
			for _, t := range day {
				ends = append(ends, t.End)
			}
			return nil
		})
		if err != nil {
			return geo.Multiset{}, err
		}
		return geo.FoldPoints(ends), nil
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return geo.Multiset{}, err
	}
	ends, err := dataset.ReadEndPoints(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return geo.Multiset{}, err
	}
	return ends, nil
}

// buildPlacers builds one placer per shard. The historical trip
// destinations are partitioned the same way live requests will route —
// by planar cell — so each shard's offline landmarks are planned from
// exactly the demand it will serve. A shard whose partition came up
// empty plans from the full history instead (its engine must still be
// valid; it simply starts with out-of-region landmarks it will never be
// asked about). Seeds are staggered by shard index so the shards'
// online RNG streams are independent.
//
// The shards' plans share nothing, so they are built concurrently over
// parallel.Default() workers, each into its own slot: a shard's placer
// is a function of its part, the opening cost and its seed alone, and
// comes out bit-identical at any worker count. The first error in shard
// order is returned.
func buildPlacers(history geo.Multiset, opening float64, seed uint64, shards, precision int) ([]core.OnlinePlacer, error) {
	if shards <= 1 {
		p, err := buildPlacer(history, opening, seed)
		if err != nil {
			return nil, err
		}
		return []core.OnlinePlacer{p}, nil
	}
	parts := partitionByShard(history, precision, shards)
	placers := make([]core.OnlinePlacer, shards)
	errs := make([]error, shards)
	parallel.For(parallel.Default(), shards, func(_, i int) {
		part := parts[i]
		if part.Len() == 0 {
			part = history
		}
		p, err := buildPlacer(part, opening, seed+uint64(i))
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		placers[i] = p
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return placers, nil
}

// partitionByShard splits history by geo.ShardOf. Each part is the
// multiset of the trips that route to its shard, so a shard's history —
// and with it the shard's config digest in the decision log — does not
// depend on how the split is done.
func partitionByShard(history geo.Multiset, precision, shards int) []geo.Multiset {
	return history.Split(shards, func(p geo.Point) int { return geo.ShardOf(p, precision, shards) })
}

// buildPlacer plans dests' offline landmarks and builds the Algorithm 2
// placer on them, with dests as the KS test's historical sample.
func buildPlacer(dests geo.Multiset, opening float64, seed uint64) (*core.ESharing, error) {
	landmarks, err := planLandmarks(dests, opening)
	if err != nil {
		return nil, fmt.Errorf("offline plan: %w", err)
	}
	cfg := core.DefaultESharingConfig()
	cfg.Seed = seed
	return core.NewESharingHistory(landmarks, opening, dests, cfg)
}

func planLandmarks(dests geo.Multiset, opening float64) ([]geo.Point, error) {
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
