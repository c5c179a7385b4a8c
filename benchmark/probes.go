package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/persist"
	"vdtuner/internal/server"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
)

// kernelScan is the linalg rung: per query, the kernels alone over as
// many float rows as the index rung computed full distances and as many
// SQ8 code rows as it computed code distances, each block fed to a top-k
// collector. Every query of a tile shares every row, the best case the
// blocked multi-query kernels allow.
type kernelScan struct {
	m            linalg.Metric
	k, dim       int
	rowsF, rowsC int
	floats       []float32
	codes        []byte
	lo, scale    []float32
	ids          []int64
	outs         [][][]float32 // per tile, per query
	resid        [][][]float32
	tops         []*linalg.TopK
}

func newKernelScan(c *corpus, floatRows, codeRows, k int) *kernelScan {
	dim := c.ds.Dim
	ks := &kernelScan{m: c.ds.Metric, k: k, dim: dim, rowsF: min(floatRows, c.n), rowsC: min(codeRows, c.n)}
	data := c.ds.Store().Data()
	ks.floats = data[:ks.rowsF*dim]
	ks.lo, ks.scale = make([]float32, dim), make([]float32, dim)
	for j := range ks.lo {
		ks.lo[j], ks.scale[j] = -1, 2.0/255 // unit-norm rows lie in [-1, 1]
	}
	ks.codes = make([]byte, ks.rowsC*dim)
	for i := range ks.codes {
		ks.codes[i] = byte((data[i] + 1) / ks.scale[0])
	}
	ks.ids = make([]int64, max(ks.rowsF, ks.rowsC))
	for i := range ks.ids {
		ks.ids[i] = int64(i)
	}
	return ks
}

// bytesPerCall is the arena bytes one call streams: each tile reads its
// float rows and its code rows once.
func (ks *kernelScan) bytesPerCall(batch int) float64 {
	count, _ := tiles(batch)
	return float64(count) * float64(ks.rowsF*ks.dim*4+ks.rowsC*ks.dim)
}

func (ks *kernelScan) scan(b [][]float32) {
	count, per := tiles(len(b))
	for len(ks.outs) < count {
		ks.outs = append(ks.outs, nil)
		ks.resid = append(ks.resid, nil)
		ks.tops = append(ks.tops, linalg.NewTopK(ks.k))
	}
	parallel.WorkerParallel(count, count, func(_, ti int) {
		qs := b[ti*per : min((ti+1)*per, len(b))]
		for len(ks.outs[ti]) < len(qs) {
			ks.outs[ti] = append(ks.outs[ti], make([]float32, len(ks.ids)))
			ks.resid[ti] = append(ks.resid[ti], make([]float32, ks.dim))
		}
		// pass scores rows rows against every query of the tile and feeds
		// each query's block to a collector.
		pass := func(rows int, score func(outs [][]float32)) {
			if rows == 0 {
				return
			}
			outs := make([][]float32, len(qs))
			for i := range outs {
				outs[i] = ks.outs[ti][i][:rows]
			}
			score(outs)
			for _, o := range outs {
				ks.tops[ti].Reset(ks.k).PushBlock(ks.ids[:rows], o)
			}
		}
		pass(ks.rowsF, func(outs [][]float32) { linalg.DistanceMultiScatter(ks.m, qs, ks.floats, outs) })
		pass(ks.rowsC, func(outs [][]float32) {
			rs := qs
			if ks.m == linalg.L2 { // the SQ8 L2 kernels take the query's residual
				rs = ks.resid[ti][:len(qs)]
				for i, q := range qs {
					linalg.SQ8Residual(q, ks.lo, rs[i])
				}
			}
			linalg.DistanceSQ8MultiScatter(ks.m, rs, ks.lo, ks.scale, ks.codes, outs)
		})
	})
}

// streamTriadGBps is the roofline's ceiling: a STREAM-style triad
// a[i] = b[i] + s*c[i] over arrays far larger than the caches, on the
// harness's worker count; the best of five passes.
func streamTriadGBps() float64 {
	const n = 4 << 20 // 16 MiB per array
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = float32(i), float32(n-i)
	}
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(w*n/clients, (w+1)*n/clients)
		}
		wg.Wait()
		best = max(best, 3*4*n/float64(time.Since(t0).Nanoseconds()))
	}
	return best
}

// timeBatches runs the sampled batches through the collection in process,
// pass after pass for a fifth of a second, and returns the median seconds
// of one pass.
func timeBatches(coll *vdms.Collection, c *corpus, reqs []request, k int) (float64, error) {
	var passes []float64
	for began := time.Now(); time.Since(began) < 200*time.Millisecond; {
		t0 := time.Now()
		for _, q := range reqs {
			if err := searchInProcess(coll, c.batches[q.batch], k, nil); err != nil {
				return 0, err
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	return median(passes), nil
}

// layerProbes are the per-layer numbers that are not rungs: direct calls
// into one layer's exported functions, on the ladder's collection and
// batches.
func (r *run) layerProbes(s *servingSpec, c *corpus, t *ladderTarget, reqs []request) error {
	// parallel: the same batches at one worker and at the harness's count.
	atN, err := timeBatches(t.coll, c, reqs, s.k)
	if err != nil {
		return err
	}
	one := t.cfg
	one.Parallelism = 1
	if _, err := t.coll.Reconfigure(one); err != nil {
		return err
	}
	at1, err := timeBatches(t.coll, c, reqs, s.k)
	if err != nil {
		return err
	}
	if _, err := t.coll.Reconfigure(t.cfg); err != nil {
		return err
	}
	r.res.set("parallel.speedup_x", "ratio", len(reqs), at1/atN)
	r.res.set("parallel.dispatch_us", "us", 0, perCallUs(2000, func(int) {
		parallel.ForRanges(clients, 64*256, 256, func(int, int, int) {})
	}))

	// vdms: the same rows and batches at the other shard count.
	twin, insertUs, err := r.quietTwin(s, c, t.rows, 3-max(1, t.cfg.ShardCount))
	if err != nil {
		return err
	}
	r.res.set("vdms.insert_us", "us", len(insertUs), median(insertUs))
	atTwin, err := timeBatches(twin.coll, c, reqs, s.k)
	twin.close()
	if err != nil {
		return err
	}
	if t.cfg.ShardCount > 1 {
		atN, atTwin = atTwin, atN
	}
	r.res.set("vdms.shard2_x", "ratio", len(reqs), atTwin/atN)

	// linalg: a collector fed random distances, and one distance at a
	// time over rows in random order.
	rng := rand.New(rand.NewSource(r.seed))
	dists, ids := make([]float32, 1<<16), make([]int64, 1<<16)
	for i := range dists {
		dists[i], ids[i] = rng.Float32(), int64(i)
	}
	top := linalg.NewTopK(s.k)
	r.res.set("linalg.topk_ns_per_push", "ns", len(dists), 1e3/float64(len(dists))*perCallUs(50, func(int) {
		top.Reset(s.k).PushBlock(ids, dists)
	}))
	order := rng.Perm(c.n)
	var sink float32
	r.res.set("linalg.dist_ns", "ns", 0, 1e3*perCallUs(1<<17, func(i int) {
		sink += linalg.Distance(c.ds.Metric, c.ds.Queries[0], c.ds.Vectors[order[i%c.n]])
	}))
	_ = sink

	if nlist := s.cfg.Build.NList; nlist > 0 {
		seg := firstSegment(t)
		t0 := time.Now()
		if _, err := kmeans.Run(linalg.MatrixFromRows(seg), kmeans.Config{K: nlist, Seed: r.seed, Workers: clients}); err != nil {
			return fmt.Errorf("kmeans.Run: %w", err)
		}
		r.res.set("kmeans.run_ms", "ms", len(seg), time.Since(t0).Seconds()*1e3)
	}
	if r.workload == "scan" {
		return r.indexTypes(c, firstSegment(t), s.k)
	}
	return nil
}

// firstSegment is the rows of the target's first sealed segment.
func firstSegment(t *ladderTarget) [][]float32 {
	return t.rows[:min(sealRows(t.cfg, len(t.rows)), len(t.rows))]
}

// indexTypes is the one-index-per-type table: every index type at the
// tuner's default parameters for it, built over the rows of one sealed
// segment of the scan corpus, answering the query set in 32-query calls.
func (r *run) indexTypes(c *corpus, rows [][]float32, k int) error {
	ids := make([]int64, len(rows))
	for i := range ids {
		ids[i] = int64(i)
	}
	led := &ledger{ids: ids, vecs: rows}
	truth := liveTruth(led, c.ds.Queries, c.ds.Metric, k)
	for _, typ := range index.AllTypes() {
		cfg := space.Decode(space.DefaultVector(typ))
		bp := cfg.Build
		bp.Workers = clients
		idx, err := index.New(typ, c.ds.Metric, c.ds.Dim, bp)
		if err != nil {
			return err
		}
		if err := idx.Build(linalg.MatrixFromRows(rows), ids); err != nil {
			return fmt.Errorf("%v build: %w", typ, err)
		}
		m := &mirror{segs: []index.Index{idx}, cfg: cfg}
		var us []float64
		var hit, want int
		var work index.Stats
		for bi, b := range c.batches {
			res := make([][]linalg.Neighbor, len(b))
			t0 := time.Now()
			m.search(b, k, &work, res)
			us = append(us, float64(time.Since(t0))/1e3)
			for i, ns := range res {
				exact := truth[bi*len(b)+i]
				hit += hits(exact, ns, func(nb linalg.Neighbor) int64 { return nb.ID })
				want += len(exact)
			}
		}
		r.res.set("index.search_us."+typ.String(), "us", len(us), median(us))
		r.res.set("index.recall."+typ.String(), "ratio", len(c.ds.Queries), float64(hit)/float64(want))
	}
	return nil
}

// writeLadder replays write ops down server.write_call,
// vdms.insert_durable and persist.wal_append on scratch directories, and
// takes the write-side probes: the same insert without a log, delete,
// compaction, checkpoint, and what the log stores per user byte.
func (r *run) writeLadder(s *servingSpec, c *corpus) error {
	dir := filepath.Join(r.outDir, fmt.Sprintf("scratch-%s-%d-%d", r.workload, r.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	ops := make([]request, r.ladder())
	for i := range ops {
		ops[i] = request{id: int64(1)<<40 | int64(i), batch: i}
	}
	rowsOf := func(op int) [][]float32 { // the pool's rows again, writeRows per op
		lo := c.n + (op*writeRows)%(len(c.ds.Vectors)-c.n-writeRows+1)
		return c.ds.Vectors[lo : lo+writeRows]
	}
	wire, err := vdms.OpenDurable(filepath.Join(dir, "wire"), s.cfg, c.ds.Metric, c.ds.Dim, s.n)
	if err != nil {
		return err
	}
	defer wire.Crash()
	srv, err := server.New(wire, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cn, err := r.dial(srv.Addr(), binaryCodec)
	if err != nil {
		return err
	}
	defer cn.close()
	// No compaction until the probe below asks for it.
	lazy := s.cfg
	lazy.CompactionTriggerRatio = 0.95
	local, err := vdms.OpenDurable(filepath.Join(dir, "local"), lazy, c.ds.Metric, c.ds.Dim, s.n)
	if err != nil {
		return err
	}
	defer local.Crash()
	wal, err := persist.OpenWAL(persist.Options{Dir: filepath.Join(dir, "wal"), Policy: persist.SyncAlways}, 1)
	if err != nil {
		return err
	}
	defer wal.Close()
	walBefore := local.Stats().WALBytes
	var inserted []int64
	rungs, err := r.climb(ops,
		step{"server.write_call", func(op int) error {
			_, err := cn.bin.Insert(rowsOf(op))
			return err
		}},
		step{"vdms.insert_durable", func(op int) error {
			ids, err := local.Insert(rowsOf(op))
			inserted = append(inserted, ids...)
			return err
		}},
		step{"persist.wal_append", func(op int) error {
			lsn, err := wal.AppendInsert(int64(op*writeRows), rowsOf(op), c.ds.Dim)
			if err != nil {
				return err
			}
			return wal.Commit(lsn)
		}})
	if err != nil {
		return err
	}
	call, insert, appendRung := rungs[0], rungs[1], rungs[2]
	userBytes := float64(len(inserted) * c.ds.Dim * 4)
	r.res.set("persist.wal_bytes_per_user_byte", "ratio", 0, float64(local.Stats().WALBytes-walBefore)/userBytes)
	r.setRung("server.write_call_us", call.us)
	r.setRung("server.write_self_us", self(call, insert))
	r.setRung("vdms.insert_durable_us", insert.us)
	r.setRung("persist.wal_append_us", appendRung.us)

	// Delete a third of what the rung inserted, oldest first, then lower
	// the trigger to the workload's, let compaction run to quiescence, and
	// checkpoint the result.
	var deleteUs []float64
	for lo := 0; lo+writeRows <= len(inserted)/3; lo += writeRows {
		t0 := time.Now()
		if _, err := local.Delete(inserted[lo : lo+writeRows]); err != nil {
			return err
		}
		deleteUs = append(deleteUs, float64(time.Since(t0))/1e3)
	}
	r.setRung("vdms.delete_us", deleteUs)
	for local.Stats().Sealing > 0 { // compaction only sees built segments
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if _, err := local.Reconfigure(s.cfg); err != nil {
		return err
	}
	if err := local.Compact(); err != nil {
		return err
	}
	r.res.set("vdms.compact_ms", "ms", 0, time.Since(t0).Seconds()*1e3)
	t0 = time.Now()
	if err := local.Checkpoint(); err != nil {
		return err
	}
	r.res.set("persist.checkpoint_ms", "ms", 0, time.Since(t0).Seconds()*1e3)
	return nil
}

// recoveryParts times, on a crashed data directory, the two persist steps
// recovery starts with — loading each shard's newest snapshot and
// replaying its log — so the rest of recovery_s is index rebuild. Shards
// recover side by side, so each part is its slowest shard's.
func (r *run) recoveryParts(dir string) (loadS, replayS float64, err error) {
	man, err := persist.LoadManifest(dir)
	if err != nil || man == nil {
		return 0, 0, fmt.Errorf("manifest of %s: %v", dir, err)
	}
	for i := 0; i < man.Shards; i++ {
		sdir := man.ShardDir(dir, i)
		t0 := time.Now()
		snap, err := persist.LoadNewestSnapshot(sdir)
		if err != nil {
			return 0, 0, err
		}
		loadS = max(loadS, time.Since(t0).Seconds())
		var after uint64
		if snap != nil {
			after = snap.CheckpointLSN
		}
		t0 = time.Now()
		if _, err := persist.ReplayWAL(sdir, after, func(*persist.WALOp) error { return nil }); err != nil {
			return 0, 0, err
		}
		replayS = max(replayS, time.Since(t0).Seconds())
	}
	return loadS, replayS, nil
}
