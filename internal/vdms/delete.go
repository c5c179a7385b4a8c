package vdms

import "fmt"

// Deletion support for live collections. Milvus implements deletes as
// tombstones that the segment search skips until compaction (a delete
// bitset handed to the index); this file does the same, per shard: deleted
// ids in sealed data (indexed or index-pending) are recorded in the owning
// shard's tombstone set, which every search's collectors exclude where
// candidates are offered (searchMultiLocked), until its compactor
// (compact.go) rewrites their segments, while deletes of growing rows are
// applied physically at once and never tombstoned. Each tombstone set
// therefore stays bounded by the dead rows actually awaiting compaction on
// that shard.

// Delete marks ids as deleted. Unknown or already-deleted ids are ignored
// (idempotent, as in Milvus). It returns the number of ids newly deleted,
// and may trigger background compaction passes. The batch is partitioned
// across shards by the same id hash that routed the inserts, so each id
// reaches exactly the shard that stores it; shards log and apply
// independently. On a durable collection the requested ids are WAL-logged
// as issued (idempotence makes replaying them exact) and the
// acknowledgement commits the log once, under the fsync policy.
func (c *Collection) Delete(ids []int64) (int, error) {
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("vdms: collection closed")
	}
	counts := make([]int, len(c.shards))
	// During a migration each shard reports which ids it actually deleted
	// (not which were requested): replaying a requested-but-not-applied
	// delete could kill a row that a concurrent insert creates under that
	// id later in the migration window.
	var applied [][]int64
	if c.delta != nil {
		applied = make([][]int64, len(c.shards))
	}
	err := c.route(ids, nil, 0, func(si int, ids []int64, _ [][]float32) (lsn uint64, err error) {
		var captured *[]int64
		if applied != nil {
			captured = &applied[si]
		}
		counts[si], lsn, err = c.shards[si].delete(ids, captured)
		return lsn, err
	})
	total := 0
	for si, n := range counts {
		total += n
		if applied != nil {
			c.delta.addDeletes(applied[si])
		}
	}
	return total, err
}

// delete applies one routed, non-empty batch of deletions to this shard:
// WAL-log, tombstone/prune, maybe trigger compaction. It returns the
// number newly deleted and its record's LSN, for the caller to commit.
func (s *shard) delete(ids []int64, captured *[]int64) (added int, lsn uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if lsn, err = s.wal.AppendDelete(ids); err != nil {
			return 0, 0, fmt.Errorf("vdms: logging delete: %w", err)
		}
	}
	added = s.deleteLocked(ids, captured)
	if added > 0 {
		s.maybeCompactLocked()
	}
	return added, lsn, nil
}

// deleteLocked applies one batch of deletions and returns how many ids
// were newly deleted; when captured is non-nil the newly deleted ids are
// appended to it (the migration delta needs exactly those). It is the
// shared core of delete and of WAL replay: no logging, no compaction
// trigger. Callers hold s.mu.
func (s *shard) deleteLocked(ids []int64, captured *[]int64) int {
	if s.tombstones == nil {
		s.tombstones = make(map[int64]struct{})
	}
	added := 0
	pruneGrowing := false
	// Growing ids can be unsorted (failed-build requeues), so membership
	// uses a set built at most once per call rather than a scan per id.
	var growing map[int64]struct{}
	for _, id := range ids {
		if id < 0 || id >= s.nextID {
			continue
		}
		if _, dup := s.tombstones[id]; dup {
			continue
		}
		seg := s.locateLocked(id)
		if seg == nil {
			if growing == nil {
				growing = make(map[int64]struct{}, len(s.growingIDs))
				for _, gid := range s.growingIDs {
					growing[gid] = struct{}{}
				}
			}
			if _, ok := growing[id]; !ok {
				// Never existed under this id (on this shard), or already
				// deleted and physically reclaimed.
				continue
			}
			// A growing row: pruned below.
			pruneGrowing = true
		}
		s.tombstones[id] = struct{}{}
		added++
		s.rows--
		if captured != nil {
			*captured = append(*captured, id)
		}
		if seg != nil {
			seg.dead++
		}
	}
	// Compact the growing tail in place: growing data is mutable, so
	// tombstoned rows are dropped immediately (surviving arena rows slide
	// down) — and since they then exist nowhere, their tombstones are
	// garbage-collected on the spot.
	if pruneGrowing && s.growingRowsLocked() > 0 {
		w := 0
		for i, id := range s.growingIDs {
			if _, dead := s.tombstones[id]; dead {
				delete(s.tombstones, id)
				continue
			}
			s.growing.CopyRow(w, i)
			s.growingIDs[w] = id
			w++
		}
		s.growing.Truncate(w)
		s.growingIDs = s.growingIDs[:w]
	}
	return added
}
