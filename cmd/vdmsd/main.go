// Command vdmsd runs the vector data management engine as a network
// service (the access layer of the VDMS architecture): a live collection
// behind internal/server's dual-protocol listener — newline-delimited
// JSON by default, and the length-prefixed binary pipelined protocol for
// any connection that opens with the binary preamble (server.DialBinary).
// Both protocols share one port; the access layer enforces a per-request
// byte limit (-max-request-bytes) and an idle-connection deadline
// (-idle-timeout) on every connection.
//
// The configuration is one -config file in the "config" op's JSON form
// (keys left out keep vdms.DefaultConfig with index_type HNSW). The
// collection is sharded (shard_count): writes are routed to independently
// locked shards by id hash, searches scatter-gather across all of them
// deterministically, and with -data-dir each config generation keeps one
// write-ahead log shared by its shards, and every shard its own snapshots,
// under the layout a manifest records (internal/persist/manifest.go),
// beside the configuration the directory serves. A restart without -config serves that; with -config the file
// is applied through Reconfigure after recovery, before listening.
//
// The running engine is reconfigurable without restart: the "reconfigure"
// op (server.Client.Reconfigure) applies a full configuration — hot knobs
// swap atomically, cold knobs (index type/build parameters, segment
// sizing, shard count) migrate in the background while the engine keeps
// serving. With -tune an online.Daemon closes the loop in-process: it
// windows the queries the server answers, tunes on the first window,
// re-tunes when the workload drifts, and applies each winner through the
// same path (hot knobs only unless -tune-cold).
//
// With -data-dir the collection is durable: every insert/delete is
// write-ahead logged under the configured wal_fsyncPolicy, the per-shard
// compactors checkpoint snapshots, startup recovers the previous state
// (replaying the collection's one WAL, its torn tail truncated), and
// SIGTERM/SIGINT shut down gracefully — final WAL sync plus a full
// snapshot per shard — so a clean stop loses nothing under any policy.
// Without -data-dir the engine is memory-only, as before.
//
// Flags and the -config file are validated up front: a bad value is a
// usage error (exit code 2) before any collection state is created.
//
// Usage:
//
//	vdmsd [-addr 127.0.0.1:7700] [-dim 128] [-metric angular]
//	      [-config config.json] [-expected-rows 100000]
//	      [-max-request-bytes 67108864] [-idle-timeout 5m]
//	      [-data-dir /var/lib/vdms]
//	      [-tune] [-tune-interval 30s] [-tune-window 256]
//	      [-tune-iters 20] [-tune-cold]
//
// Clients: see internal/server.Client (JSON) and server.BinClient
// (binary, pipelined), e.g.
//
//	cl, _ := server.Dial("127.0.0.1:7700")
//	ids, _ := cl.Insert(vectors)
//	hits, _ := cl.Search(query, 10)
//
//	bc, _ := server.DialBinary("127.0.0.1:7700")
//	hits, _ = bc.Search(query, 10) // concurrent calls pipeline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"vdtuner/internal/core"
	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/online"
	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
)

// usageError prints the message and the flag summary, then exits 2 — the
// conventional "bad invocation" code — before any engine state exists.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vdmsd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// loadConfig reads a -config file, laid over the stock configuration:
// DefaultConfig with index_type HNSW, so keys the file leaves out keep
// their stock values. An empty path is the stock configuration.
func loadConfig(path string) (vdms.Config, error) {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.HNSW
	if path == "" {
		return cfg, nil
	}
	var keys map[string]json.RawMessage
	stock, _ := json.Marshal(cfg)    // a validated Config always encodes,
	_ = json.Unmarshal(stock, &keys) // and its encoding decodes
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &keys) // the file's keys replace the stock ones
	}
	if err == nil {
		merged, _ := json.Marshal(keys) // decoded raw values re-encode
		err = json.Unmarshal(merged, &cfg)
	}
	if err != nil {
		return cfg, fmt.Errorf("-config: %w", err)
	}
	return cfg, vdms.ValidateConfig(cfg)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	dim := flag.Int("dim", 128, "vector dimensionality (> 0)")
	metricName := flag.String("metric", "angular", "distance metric: l2, ip, angular")
	configPath := flag.String("config", "", "configuration file in the config op's JSON form (keys left out keep their stock values); on an existing -data-dir it is applied through Reconfigure, and without it the directory serves the configuration it records")
	expectedRows := flag.Int("expected-rows", 100000, "expected corpus size (> 0, scales segment sizing; a -data-dir keeps the value it was created with)")
	maxRequestBytes := flag.Int("max-request-bytes", 64<<20, "per-request byte limit on both protocols (> 0); oversized requests are refused and the connection dropped")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle longer than this (0 disables)")
	dataDir := flag.String("data-dir", "", "data directory for durable persistence (empty = memory-only)")
	tune := flag.Bool("tune", false, "run the in-process tuning daemon: window served queries, re-tune on drift, apply winners online")
	tuneInterval := flag.Duration("tune-interval", 30*time.Second, "how often the tuning daemon checks the query window")
	tuneWindow := flag.Int("tune-window", 256, "minimum served queries per tuning window")
	tuneIters := flag.Int("tune-iters", 20, "cold-start tuning budget (re-tunes use half)")
	tuneCold := flag.Bool("tune-cold", false, "let the tuning daemon apply cold knobs too (index type, segment sizing, shard count — triggers online migrations)")
	flag.Parse()

	// Validate every flag before building anything: a typo'd knob should
	// be a crisp usage error, not a half-started collection. The -config
	// file goes through vdms.ValidateConfig, the check Reconfigure makes.
	if *dim <= 0 {
		usageError("-dim must be positive, got %d", *dim)
	}
	if *expectedRows <= 0 {
		usageError("-expected-rows must be positive, got %d", *expectedRows)
	}
	if *tune && (*tuneWindow <= 0 || *tuneIters <= 0 || *tuneInterval <= 0) {
		usageError("-tune-window, -tune-iters and -tune-interval must be positive")
	}
	if *maxRequestBytes <= 0 {
		usageError("-max-request-bytes must be positive, got %d", *maxRequestBytes)
	}
	if *idleTimeout < 0 {
		usageError("-idle-timeout must be >= 0, got %s", *idleTimeout)
	}
	metric, err := linalg.ParseMetric(*metricName)
	if err != nil {
		usageError("%v", err)
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		usageError("%v", err)
	}

	// Register the shutdown handler before anything is externally
	// visible: a SIGTERM arriving right after the listening line must hit
	// the graceful path, not the runtime's default exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var coll *vdms.Collection
	if *dataDir != "" {
		coll, err = vdms.OpenDurable(*dataDir, cfg, metric, *dim, *expectedRows)
	} else {
		coll, err = vdms.NewCollection(cfg, metric, *dim, *expectedRows)
	}
	if err == nil && *configPath != "" && coll.Config() != cfg { // a directory serves what it recorded
		var gen uint64
		if gen, err = coll.Reconfigure(cfg); err == nil {
			fmt.Printf("vdmsd applied %s as config generation %d\n", *configPath, gen)
		} else {
			coll.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := server.NewWithOptions(coll, *addr, server.Options{
		MaxRequestBytes: *maxRequestBytes,
		IdleTimeout:     *idleTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := coll.Stats()
	if *dataDir != "" {
		fmt.Printf("vdmsd recovered %d rows (%d sealed segments, %d growing) across %d shards at config generation %d from %s\n",
			st.Rows, st.Sealed, st.GrowingRows, st.ShardCount, st.ConfigGeneration, *dataDir)
	}
	fmt.Printf("vdmsd listening on %s (dim=%d, metric=%s, index=%v, shards=%d)\n",
		srv.Addr(), *dim, metric, st.IndexType, st.ShardCount)

	// The tuning loop: every -tune-interval, drain the window of queries
	// the server just served; once it holds enough, hand it to the one
	// online.Daemon, which tunes (cold on the first window, warm on drift)
	// against a live sample of the corpus and pushes a new winner into the
	// engine through the same Reconfigure path a client would use.
	tuneDone := make(chan struct{})
	var tuneWG sync.WaitGroup
	if *tune {
		srv.EnableQueryLog(4 * *tuneWindow)
		daemon := online.NewDaemon(coll, online.DaemonOptions{
			Tuning:           core.Options{Seed: 1},
			InitialIters:     *tuneIters,
			ApplyColdChanges: *tuneCold,
		})
		fmt.Printf("tuning daemon watching query windows (interval=%s, window>=%d, cold=%v)\n",
			*tuneInterval, *tuneWindow, *tuneCold)
		tuneWG.Add(1)
		go func() {
			defer tuneWG.Done()
			ticker := time.NewTicker(*tuneInterval)
			defer ticker.Stop()
			for {
				select {
				case <-tuneDone:
					return
				case <-ticker.C:
				}
				qs := srv.TakeQueries()
				if len(qs) < *tuneWindow {
					continue
				}
				rep, err := daemon.ObserveWindow(qs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "tuner: %v\n", err)
					continue
				}
				if rep.Applied {
					kind := "hot swap"
					if rep.Migrated {
						kind = "migration"
					}
					fmt.Printf("tuner applied generation %d via %s (drift=%.3f retuned=%v, recall=%.3f qps=%.0f)\n",
						rep.Generation, kind, rep.DriftScore, rep.Retuned,
						rep.Result.Recall, rep.Result.QPS)
				}
			}
		}()
	}

	// Graceful shutdown on SIGTERM as well as interrupt: stop accepting,
	// then Close the collection — which waits out builds and compactions
	// and, when durable, syncs the collection's WAL and writes final
	// snapshots, so no acknowledged write (and no unsealed growing row)
	// is lost. A hard kill instead leaves whatever the fsync policy made
	// durable, which recovery replays on the next start.
	<-sig
	fmt.Println("shutting down")
	close(tuneDone)
	tuneWG.Wait()
	code := 0
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	if err := coll.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
