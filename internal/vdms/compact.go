package vdms

import (
	"fmt"
	"slices"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// The background compactors. Milvus bounds delete-heavy workloads with two
// compaction flavors — single-segment compaction (drop rows past a
// tombstone ratio) and merge compaction (coalesce undersized segments) —
// and this file implements both, per shard:
//
//   - a sealed segment whose tombstone ratio reaches
//     Config.CompactionTriggerRatio is rewritten: live rows are kept, the
//     index is rebuilt, deleted rows are physically dropped;
//   - runs of undersized sealed segments (live rows below the seal
//     threshold) are merged into full ones, up to
//     Config.CompactionMergeFanIn sources and one seal budget per new
//     segment;
//   - tombstones whose rows were dropped are garbage-collected, so the
//     set every search excludes (and HNSW's beam and SCANN's stage 1
//     widen by) stays bounded by the dead rows awaiting compaction.
//
// Every shard runs its own compactor under its own lock, so a pass
// rewriting one shard's segments never blocks writes or searches on
// another. One pass plans deterministically under the shard lock (sealed
// segments are kept in seq order), executes its rewrite/merge tasks on a
// parallel.Parallel pool of Config.CompactionParallelism workers, and
// commits results in plan order. New segments take fresh seqs assigned at
// plan time and index-build seeds derived from them, so workers=1 and
// workers=N produce bit-identical segments and search results. A pass
// loops until no trigger fires; at most one pass runs per shard at a
// time.

// compactTask rewrites (one source) or merges (several sources, in seq
// order) sealed segments into at most one new segment.
type compactTask struct {
	sources []*sealedSegment
}

// compactInput is a task's gathered build input: the sources' live rows in
// id order (one fresh arena), plus the tombstoned ids being physically
// dropped.
type compactInput struct {
	store   *linalg.Matrix
	ids     []int64
	dropped []int64
}

// planCompactionLocked selects the current pass's tasks. Callers hold
// s.mu. The plan depends only on the sealed-segment state (seq-ordered)
// and the tombstone set, so it is deterministic for a given call sequence.
// A segment whose index is still pending is not plannable: its landing
// re-checks the triggers.
func (s *shard) planCompactionLocked() []compactTask {
	cfg := s.config()
	trigger := orDefault(cfg.CompactionTriggerRatio, KnobCompactionTriggerRatio)
	fanIn := orDefault(cfg.CompactionMergeFanIn, KnobCompactionMergeFanIn)
	var tasks []compactTask
	rewriting := make(map[*sealedSegment]bool)
	// (a) rewrite tombstone-heavy segments.
	plannable := func(seg *sealedSegment) bool { return seg.idx != nil && !seg.noCompact }
	for _, seg := range s.sealed {
		if !plannable(seg) {
			continue
		}
		if seg.dead > 0 && float64(seg.dead) >= trigger*float64(len(seg.ids)) {
			tasks = append(tasks, compactTask{sources: []*sealedSegment{seg}})
			rewriting[seg] = true
		}
	}
	// (b) merge runs of undersized segments (live rows below the seal
	// threshold) into full ones, up to fanIn sources and one seal budget
	// per group. Only groups of >= 2 become tasks, so a lone partial tail
	// is left alone instead of being rewritten for nothing.
	var group []*sealedSegment
	groupLive := 0
	flush := func() {
		if len(group) >= 2 {
			tasks = append(tasks, compactTask{sources: group})
		}
		group = nil
		groupLive = 0
	}
	for _, seg := range s.sealed {
		if rewriting[seg] || !plannable(seg) {
			continue
		}
		live := len(seg.ids) - seg.dead
		if live >= s.sealRows {
			continue
		}
		if len(group) == fanIn || groupLive+live > s.sealRows {
			flush()
		}
		group = append(group, seg)
		groupLive += live
	}
	flush()
	return tasks
}

// gatherLocked snapshots a task's build input, copying the sources' live
// rows into one fresh arena. Callers hold s.mu.
func (s *shard) gatherLocked(t compactTask) compactInput {
	total := 0
	for _, seg := range t.sources {
		total += len(seg.ids) - seg.dead
	}
	in := compactInput{store: linalg.NewMatrix(s.dim, total)}
	for _, seg := range t.sources {
		for i, id := range seg.ids {
			if _, dead := s.tombstones[id]; dead {
				in.dropped = append(in.dropped, id)
				continue
			}
			in.store.AppendRow(seg.row(i))
			in.ids = append(in.ids, id)
		}
	}
	// Sources are visited in seq order, which is not id order once
	// segments have been compacted before; canonicalize.
	index.SortRowsByID(in.store, in.ids)
	return in
}

// buildCompacted builds the replacement segment for one task outside the
// lock. A task whose rows are all dead yields (nil, nil): the sources are
// simply dropped.
func (s *shard) buildCompacted(in compactInput, seq int64) (*sealedSegment, error) {
	if len(in.ids) == 0 {
		return nil, nil
	}
	seg := &sealedSegment{seq: seq, store: in.store, ids: in.ids}
	l, err := s.buildSegment(seg)
	if err != nil {
		return nil, err
	}
	seg.land(l) // not shared until its commit
	return seg, nil
}

// maybeCompactLocked starts a background compaction pass when a trigger
// fires and no pass is already running on this shard. Callers hold s.mu.
func (s *shard) maybeCompactLocked() {
	if s.compacting || s.closed {
		return
	}
	if len(s.planCompactionLocked()) == 0 {
		return
	}
	s.compacting = true
	s.busy++
	go s.compactPass()
}

// compactPass is one shard's compactor goroutine: it loops plan → execute
// → commit until no trigger fires (or the shard closes), then signals
// completion. Source segments stay searchable until their replacement is
// committed, and searches are unaffected throughout — dropped rows were
// already tombstone-filtered.
func (s *shard) compactPass() {
	for {
		s.mu.Lock()
		var plan []compactTask
		if !s.closed {
			plan = s.planCompactionLocked()
		}
		if len(plan) == 0 {
			s.compacting = false
			s.doneLocked()
			s.mu.Unlock()
			return
		}
		workers := s.config().compactWorkers()
		inputs := make([]compactInput, len(plan))
		seqs := make([]int64, len(plan))
		for i, t := range plan {
			inputs[i] = s.gatherLocked(t)
			seqs[i] = s.sealSeq
			s.sealSeq++
		}
		s.mu.Unlock()

		segs := make([]*sealedSegment, len(plan))
		errs := make([]error, len(plan))
		parallel.Parallel(workers, len(plan), func(i int) {
			segs[i], errs[i] = s.buildCompacted(inputs[i], seqs[i])
		})

		s.mu.Lock()
		committed := false
		for i, t := range plan {
			if errs[i] != nil {
				s.failLocked(errs[i])
				// Sources stay in place, still searchable, but are
				// excluded from future plans: re-planning would select
				// the same deterministic failure forever and hang
				// Flush/Close in quiesce.
				for _, seg := range t.sources {
					seg.noCompact = true
				}
				continue
			}
			committed = true
			if s.wal != nil {
				// Log the commit at its position in the operation order:
				// sources, the replacement's seq (deriving its build
				// seed), the surviving ids, and the physically dropped
				// ones. Replay rebuilds the identical segment from these.
				srcSeqs := make([]int64, len(t.sources))
				for j, seg := range t.sources {
					srcSeqs[j] = seg.seq
				}
				if _, err := s.wal.AppendCompactCommit(s.slot, seqs[i], srcSeqs, inputs[i].ids, inputs[i].dropped); err != nil {
					s.failLocked(fmt.Errorf("vdms: logging compaction commit: %w", err))
				}
			}
			s.removeSealedLocked(t.sources)
			if ns := segs[i]; ns != nil {
				// Counts deletes that landed on rows gathered as live.
				s.insertSealedLocked(ns)
			}
			// The dropped rows exist nowhere anymore (ids are never
			// reused): their tombstones are garbage.
			for _, id := range inputs[i].dropped {
				delete(s.tombstones, id)
			}
			s.compactedSegments += int64(len(t.sources))
			s.reclaimedRows += int64(len(inputs[i].dropped))
		}
		s.compactionPasses++
		autoCkpt := !s.noAutoCkpt
		var lsn uint64
		if s.wal != nil {
			lsn = s.wal.LastLSN()
		}
		s.mu.Unlock()
		if committed && s.wal != nil {
			// Commit records get exactly the durability the fsync policy
			// gives client writes. Under SyncAlways that makes them
			// crash-proof immediately, which is what the bit-identical
			// recovery guarantee rests on: an unsynced commit lost to a
			// crash would let recovery re-plan the compaction with fresh
			// sequence numbers (and so different index build seeds) than
			// the pre-crash engine used. Under the lazier policies the
			// records ride the next group-commit or checkpoint, and a
			// crash may rewind the compaction — consistent with those
			// policies' weaker contract, where the unsynced tail of
			// client writes is lost the same way.
			if err := s.wal.Commit(lsn); err != nil {
				// Surface the durability failure the way append failures
				// are: silently dropping it would let a crash rewind the
				// compaction with no diagnostic.
				s.mu.Lock()
				s.failLocked(fmt.Errorf("vdms: committing compaction log records: %w", err))
				s.mu.Unlock()
			}
			if autoCkpt {
				// Checkpoint after every committed pass: the snapshot
				// absorbs the rewritten segments, and the log truncates
				// to the churn since once every shard's snapshot covers
				// it. A checkpoint failure costs only log length — the
				// commit records are in the WAL, and the next checkpoint
				// (or Close's) retries — so it is deliberately not fatal
				// here.
				_ = s.checkpoint()
			}
		}
	}
}

// removeSealedLocked drops the given segments from s.sealed. Callers hold
// s.mu.
func (s *shard) removeSealedLocked(drop []*sealedSegment) {
	s.sealed = slices.DeleteFunc(s.sealed, func(seg *sealedSegment) bool { return slices.Contains(drop, seg) })
}

// Compact synchronously runs compaction to quiescence on every shard: it
// triggers a pass wherever any segment warrants one and blocks until every
// shard's background work — compaction passes and the index builds whose
// landing may start one — is done. It returns the first background error,
// if any. Searches remain served throughout; shards compact independently.
func (c *Collection) Compact() error {
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return fmt.Errorf("vdms: collection closed")
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	return quiesceAll(c.shards)
}
