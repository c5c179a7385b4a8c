package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/vdms"
)

// mixedSpec is the write-beside-read workload: a durable two-shard
// IVF_SQ8 collection that acknowledges a write only after its fsync
// (wal_fsyncPolicy = always, fixed so both sides of a comparison pay the
// same flushes), with compaction and auto-checkpoint left live.
func mixedSpec(scale float64) *servingSpec {
	cfg := baseConfig(index.IVFSQ8)
	cfg.Build.NList, cfg.Search.NProbe = 64, 8
	cfg.ShardCount = 2
	cfg.WALFsyncPolicy = 3
	return &servingSpec{n: scaled(60000, scale, 2000), nq: scaled(512, scale, 64), k: 10, cfg: cfg, durable: true,
		batch: 4, codec: binaryCodec, readers: 1, writeRate: 25, recallFloor: 0.85}
}

// pacedWriter is the open-loop side of the mix: op i is due at i/rate
// seconds whatever happened to the ops before it; ops alternate, across
// phases too, between inserting writeRows new rows and deleting the
// writeRows oldest live ids.
// Latency is taken from the due time, so a stall is charged to every op
// it delays, and the op count is the same on both sides of a comparison.
func (r *run) pacedWriter(d *deployment, c *corpus, p *phase, ops int) {
	led := d.led
	gap := time.Second / time.Duration(d.spec.writeRate)
	for i := 0; i < ops; i++ {
		due := time.Duration(i) * gap
		if wait := due - wakeEarly - time.Since(p.began); wait > 0 {
			time.Sleep(wait)
		}
		for time.Since(p.began) < due {
		}
		sent := time.Since(p.began)
		var err error
		led.ops++
		if led.ops%2 == 1 {
			rows := c.ds.Vectors[c.n+led.pool : c.n+led.pool+writeRows]
			led.pool += writeRows
			var ids []int64
			if ids, err = d.writer.bin.Insert(rows); err == nil {
				if len(ids) != len(rows) || (len(led.ids) > 0 && ids[0] <= led.ids[len(led.ids)-1]) {
					r.problem("write op %d: ids %v do not continue the ledger", i, ids)
				}
				led.acked(ids, rows)
			}
		} else {
			victims := led.ids[led.head : led.head+writeRows]
			var n int
			if n, err = d.writer.bin.Delete(victims); err == nil {
				if n != len(victims) {
					r.problem("write op %d: delete of %d live ids tombstoned %d", i, len(victims), n)
				}
				led.head += len(victims)
				led.deletedBelow.Store(led.ids[led.head])
			}
		}
		p.writer.add(due, time.Since(p.began)-due, i)
		p.writer.trace(p, "client.write")
		p.late = append(p.late, int64(sent-due))
		r.attempted.Add(1)
		if err != nil {
			r.failed.Add(1)
		}
	}
}

// writeStats cuts the write ops into reps windows by due time, like
// readStats.
func (p *phase) writeStats() (p50, p99 []float64, ops int) {
	per := (len(p.writer.dur) + reps - 1) / reps
	ops = per
	for lo := 0; lo < len(p.writer.dur); lo += per {
		b := slices.Clone(p.writer.dur[lo:min(lo+per, len(p.writer.dur))])
		slices.Sort(b)
		p50 = append(p50, percentileNs(b, 0.50, 1e6))
		p99 = append(p99, percentileNs(b, 0.99, 1e6))
		ops = min(ops, len(b))
	}
	return p50, p99, ops
}

// wakeEarly is how long before an op is due the writer asks to be woken;
// it spins for what is left. The server shares the process and keeps both
// cores busy, and a sleeping goroutine gets a core back only when a
// running one yields: measured here, a plain sleep to the due time woke a
// median 1.1 ms and a tenth of the time over 5.7 ms late, half the ops
// went out more than lateOver late, and the lateness was a quarter of
// write_p50_ms. Waking 5 ms early left a fifth of them late over ten seeds
// (README, "Workloads"); the price is a client that holds a core for up to
// an eighth of the time (at twice the rate it cost the reader 6 % of its
// throughput).
const wakeEarly = 5 * time.Millisecond

// lateOver is how long after its due time an op may go out before it
// counts as sent late.
const lateOver = time.Millisecond

// finishWrites ends a writing workload: report the write side, measure
// recall and memory on what is live now, crash, recover, and hold the
// recovered collection to the ledger.
func (r *run) finishWrites(d *deployment, c *corpus, p *phase) error {
	s := d.spec
	p50, p99, ops := p.writeStats()
	r.res.set("write_p50_ms", "ms", ops, p50...)
	r.res.set("write_p99_ms", "ms", ops, p99...)
	var late int
	var worst int64
	for _, l := range p.late {
		if l > int64(lateOver) {
			late++
		}
		worst = max(worst, l)
	}
	r.res.set("write_late_max_ms", "ms", len(p.late), float64(worst)/1e6)
	r.res.set("write_late_share", "ratio", len(p.late), float64(late)/float64(len(p.late)))
	r.backgroundWork(d, p)

	c.truth = liveTruth(d.led, c.ds.Queries, c.ds.Metric, s.k)
	if err := r.reportState(d, c); err != nil {
		return err
	}

	// Phase C. Crash drops whatever no fsync had covered; with the always
	// policy that must be nothing that was acknowledged.
	d.coll.Crash()
	var loadS, replayS float64
	if r.trace {
		var err error
		if loadS, replayS, err = r.recoveryParts(d.dir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	rec, err := vdms.OpenDurable(d.dir, s.cfg, c.ds.Metric, c.ds.Dim, s.n)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recoveryS := time.Since(t0).Seconds()
	r.res.set("recovery_s", "s", 0, recoveryS)
	if r.trace {
		r.res.set("persist.snapshot_load_ms", "ms", 0, loadS*1e3)
		r.res.set("persist.wal_replay_ms", "ms", 0, replayS*1e3)
		r.res.set("vdms.recover_rebuild_ms", "ms", 0, (recoveryS-loadS-replayS)*1e3)
	}
	d.coll = rec // shutdown abandons this one
	r.checkRecovered(rec, d.led, s.k)
	if err := rec.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	disk, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	r.res.set("persist.disk_bytes_end", "bytes", 0, float64(disk))
	r.res.set("disk_x_raw", "ratio", 0, float64(disk)/float64(d.led.live()*c.ds.Dim*4))
	return nil
}

// backgroundWork reports what sealing and compaction did during the
// timed phase and what they cost the reader: the longest call and how
// many calls took over ten times the median.
func (r *run) backgroundWork(d *deployment, p *phase) {
	st := d.coll.Stats()
	r.res.set("vdms.compaction_passes", "count", 0, float64(st.CompactionPasses))
	r.res.set("vdms.compacted_segments", "count", 0, float64(st.CompactedSegments))
	r.res.set("vdms.reclaimed_rows", "rows", 0, float64(st.ReclaimedRows))
	r.res.set("vdms.tombstones_end", "rows", 0, float64(st.Tombstones))
	r.res.set("vdms.sealed_end", "count", 0, float64(st.Sealed))
	r.res.set("vdms.growing_rows_end", "rows", 0, float64(st.GrowingRows))
	var all []int64
	for _, l := range p.readers {
		all = append(all, l.dur...)
	}
	slices.Sort(all)
	med := all[len(all)/2]
	over := len(all) - sort.Search(len(all), func(i int) bool { return all[i] > 10*med })
	r.res.set("vdms.search_stall_max_ms", "ms", len(all), float64(all[len(all)-1])/1e6)
	r.res.set("vdms.search_calls_over_10x_p50", "count", len(all), float64(over))
}

// liveTruth is the exact top-k of every query among the ledger's live
// rows, by brute force.
func liveTruth(led *ledger, queries [][]float32, m linalg.Metric, k int) [][]int64 {
	ids, vecs := led.ids[led.head:], led.vecs[led.head:]
	truth := make([][]int64, len(queries))
	parallel.Parallel(0, len(queries), func(qi int) {
		top := linalg.NewTopK(k)
		for i, v := range vecs {
			top.Push(ids[i], linalg.Distance(m, queries[qi], v))
		}
		for _, nb := range top.Results() {
			truth[qi] = append(truth[qi], nb.ID)
		}
	})
	return truth
}

// checkRecovered holds the recovered collection to the ledger: the row
// count is the ledger's, a seed-chosen sample of live ids plus the most
// recently acknowledged ones each come back from a search for their own
// vector, and no deleted id comes back at all. (The own-vector hit is the
// nearest neighbour up to SQ8 rounding, so its distance is checked
// against the quantization error, not against zero.)
func (r *run) checkRecovered(rec *vdms.Collection, led *ledger, k int) {
	if rows := rec.Stats().Rows; rows != int64(led.live()) {
		r.problem("recovered collection holds %d rows, the ledger %d", rows, led.live())
	}
	rng := rand.New(rand.NewSource(r.seed))
	picks := make([]int, 0, 1024+256)
	for i := 0; i < 1024; i++ {
		picks = append(picks, led.head+rng.Intn(led.live()))
	}
	for i := max(led.head, len(led.ids)-256); i < len(led.ids); i++ {
		picks = append(picks, i)
	}
	floor := led.ids[led.head]
	for lo := 0; lo < len(picks); lo += 64 {
		part := picks[lo:min(lo+64, len(picks))]
		qs := make([][]float32, len(part))
		for i, at := range part {
			qs[i] = led.vecs[at]
		}
		res, err := rec.SearchBatch(qs, k, nil)
		if err != nil {
			r.problem("search after recovery: %v", err)
			return
		}
		for i, ns := range res {
			found := false
			for _, nb := range ns {
				if nb.ID < floor {
					r.problem("recovered collection returned deleted id %d", nb.ID)
				}
				if nb.ID == led.ids[part[i]] && nb.Dist < 1e-2 {
					found = true
				}
			}
			if !found {
				r.problem("acknowledged id %d not found by its own vector after recovery", led.ids[part[i]])
			}
		}
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
