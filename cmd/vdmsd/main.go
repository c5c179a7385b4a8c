// Command vdmsd runs the vector data management engine as a network
// service (the access layer of the VDMS architecture): a live collection
// behind internal/server's dual-protocol listener — newline-delimited
// JSON by default, and the length-prefixed binary pipelined protocol for
// any connection that opens with the binary preamble (server.DialBinary).
// Both protocols share one port; the access layer enforces a per-request
// byte limit (-max-request-bytes) and an idle-connection deadline
// (-idle-timeout) on every connection.
//
// The collection is sharded (-shards): inserts and deletes are routed to
// independently locked shards by id hash, searches scatter-gather across
// all of them deterministically, and with -data-dir every shard keeps its
// own write-ahead log and snapshots in <data-dir>/shard-<i>, or after the
// G-th migration <data-dir>/gen-<G>/shard-<i>, as a versioned manifest
// records (internal/persist/manifest.go). A data directory is bound
// to the shard count it was created with; reopening it with a different
// -shards value is refused — open it at its recorded count and reshard
// online through the "reconfigure" op instead.
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
// write-ahead logged under the configured -fsync policy, the per-shard
// compactors checkpoint snapshots, startup recovers the previous state
// (replaying all shard WALs in parallel and truncating torn tails), and
// SIGTERM/SIGINT shut down gracefully — final WAL sync plus a full
// snapshot per shard — so a clean stop loses nothing under any policy.
// Without -data-dir the engine is memory-only, as before.
//
// Flags are validated up front: a value outside its documented range is a
// usage error (exit code 2) before any collection state is created.
//
// Usage:
//
//	vdmsd [-addr 127.0.0.1:7700] [-dim 128] [-metric angular]
//	      [-index HNSW] [-expected-rows 100000] [-shards 1]
//	      [-compact-ratio 0.2] [-compact-fanin 4] [-compact-workers 2]
//	      [-max-request-bytes 67108864] [-idle-timeout 5m]
//	      [-data-dir /var/lib/vdms] [-fsync always|batch|never]
//	      [-wal-group 64]
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
	"vdtuner/internal/persist"
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

// knobRange prints a knob's range from the engine's knob table, for flag
// descriptions.
func knobRange(id vdms.KnobID) string {
	return fmt.Sprintf("[%v, %v]", vdms.Knobs[id].Min, vdms.Knobs[id].Max)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	dim := flag.Int("dim", 128, "vector dimensionality (> 0)")
	metricName := flag.String("metric", "angular", "distance metric: l2, ip, angular")
	indexName := flag.String("index", "HNSW", "index type for sealed segments")
	expectedRows := flag.Int("expected-rows", 100000, "expected corpus size (> 0, scales segment sizing)")
	shards := flag.Int("shards", 1, "live-collection shard count, "+knobRange(vdms.KnobShardCount))
	compactRatio := flag.Float64("compact-ratio", 0, "sealed-segment tombstone ratio that triggers compaction, "+knobRange(vdms.KnobCompactionTriggerRatio)+" (0 = engine default)")
	compactFanIn := flag.Int("compact-fanin", 0, "max undersized segments merged per compaction, "+knobRange(vdms.KnobCompactionMergeFanIn)+" (0 = engine default)")
	compactWorkers := flag.Int("compact-workers", 0, "compactor worker-pool size, "+knobRange(vdms.KnobCompactionParallelism)+" (0 = engine default)")
	maxRequestBytes := flag.Int("max-request-bytes", 64<<20, "per-request byte limit on both protocols (> 0); oversized requests are refused and the connection dropped")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle longer than this (0 disables)")
	dataDir := flag.String("data-dir", "", "data directory for durable persistence (empty = memory-only)")
	fsyncName := flag.String("fsync", "", "WAL fsync policy: never, batch, always (empty = engine default, batch)")
	walGroup := flag.Int("wal-group", 0, "group-commit batch size under the batch policy, "+knobRange(vdms.KnobWALGroupCommit)+" (0 = engine default)")
	tune := flag.Bool("tune", false, "run the in-process tuning daemon: window served queries, re-tune on drift, apply winners online")
	tuneInterval := flag.Duration("tune-interval", 30*time.Second, "how often the tuning daemon checks the query window")
	tuneWindow := flag.Int("tune-window", 256, "minimum served queries per tuning window")
	tuneIters := flag.Int("tune-iters", 20, "cold-start tuning budget (re-tunes use half)")
	tuneCold := flag.Bool("tune-cold", false, "let the tuning daemon apply cold knobs too (index type, segment sizing, shard count — triggers online migrations)")
	flag.Parse()

	// Validate every flag before building anything: a typo'd knob should
	// be a crisp usage error, not a half-started collection (or a silently
	// absurd segment model). Knobs that live in the engine configuration
	// are checked by the engine's own validator below — the same
	// vdms.ValidateConfig that guards Reconfigure and bounds the tuner's
	// search space — so the CLI can never accept a value the engine would
	// refuse (or vice versa).
	if *dim <= 0 {
		usageError("-dim must be positive, got %d", *dim)
	}
	if *expectedRows <= 0 {
		usageError("-expected-rows must be positive, got %d", *expectedRows)
	}
	if *tune && (*tuneWindow <= 0 || *tuneIters <= 0 || *tuneInterval <= 0) {
		usageError("-tune-window, -tune-iters and -tune-interval must be positive")
	}
	// ValidateConfig treats a zero shard count as "engine default", but on
	// the command line zero is a typo, not a request for the default — the
	// flag's own default is already 1. The range still comes from the
	// knob table.
	if r := vdms.Knobs[vdms.KnobShardCount]; float64(*shards) < r.Min || float64(*shards) > r.Max {
		usageError("-shards %d outside %s", *shards, knobRange(vdms.KnobShardCount))
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
	typ, err := index.ParseType(*indexName)
	if err != nil {
		usageError("%v", err)
	}

	cfg := vdms.DefaultConfig()
	cfg.IndexType = typ
	cfg.ShardCount = *shards
	if *compactRatio != 0 {
		cfg.CompactionTriggerRatio = *compactRatio
	}
	if *compactFanIn != 0 {
		cfg.CompactionMergeFanIn = *compactFanIn
	}
	if *compactWorkers != 0 {
		cfg.CompactionParallelism = *compactWorkers
	}
	if *fsyncName != "" {
		policy, err := persist.ParseSyncPolicy(*fsyncName)
		if err != nil {
			usageError("%v", err)
		}
		cfg.WALFsyncPolicy = int(policy)
	}
	if *walGroup != 0 {
		cfg.WALGroupCommit = *walGroup
	}
	if err := vdms.ValidateConfig(cfg); err != nil {
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
	if *dataDir != "" {
		st := coll.Stats()
		fmt.Printf("vdmsd recovered %d rows (%d sealed segments, %d growing) across %d shards from %s\n",
			st.Rows, st.Sealed, st.GrowingRows, len(st.Shards), *dataDir)
	}
	fmt.Printf("vdmsd listening on %s (dim=%d, metric=%s, index=%v, shards=%d)\n",
		srv.Addr(), *dim, metric, typ, *shards)

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
	// and, when durable, syncs every shard's WAL and writes final
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
