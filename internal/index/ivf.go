package index

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
)

// ivfCoarse is the shared coarse quantizer of the IVF family: a k-means
// partition of the data into nlist cells. Owners store their payloads
// (vectors, codes, ids) grouped cell-major — cell c's rows occupy the
// contiguous grouped range [cellStart[c], cellStart[c+1]) — so a probe
// scans one contiguous block per cell instead of chasing a posting list of
// scattered offsets.
type ivfCoarse struct {
	metric  linalg.Metric
	dim     int
	nlist   int
	seed    int64
	workers int
	// cents is the nlist x dim centroid arena.
	cents *linalg.Matrix
	// cellStart[c] is the first grouped row of cell c; len is ncells+1.
	cellStart []int32
	built     bool
	buildWork Stats
}

// train clusters the vectors and returns the grouping permutation: grouped
// row g holds original row order[g], cells in index order, within-cell rows
// in original row order (the posting-list order of the previous layout, so
// scan and therefore result order is unchanged).
func (c *ivfCoarse) train(store *linalg.Matrix) ([]int32, error) {
	if c.built {
		return nil, fmt.Errorf("ivf: Build called twice")
	}
	if store == nil || store.Rows() == 0 {
		return nil, fmt.Errorf("ivf: no vectors")
	}
	if store.Dim() != c.dim {
		return nil, fmt.Errorf("ivf: store has dim %d, want %d", store.Dim(), c.dim)
	}
	if !store.Packed() {
		return nil, fmt.Errorf("ivf: store must be packed (stride == dim)")
	}
	n := store.Rows()
	sample := 20 * c.nlist
	if sample < 2000 {
		sample = 2000
	}
	res, err := kmeans.Run(store, kmeans.Config{
		K: c.nlist, Seed: c.seed, SampleLimit: sample, Workers: c.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: training: %w", err)
	}
	c.cents = res.Centroids
	ncells := c.cents.Rows()
	counts := make([]int32, ncells)
	for _, a := range res.Assign {
		counts[a]++
	}
	c.cellStart = make([]int32, ncells+1)
	for i := 0; i < ncells; i++ {
		c.cellStart[i+1] = c.cellStart[i] + counts[i]
	}
	order := make([]int32, n)
	fill := make([]int32, ncells)
	copy(fill, c.cellStart[:ncells])
	for i, a := range res.Assign {
		order[fill[a]] = int32(i)
		fill[a]++
	}
	// Approximate training cost: the one Lloyd pass's points * centroids
	// comparisons on the (possibly sampled) training set plus the final
	// full assign.
	trainN := min(n, sample)
	c.buildWork = Stats{DistComps: int64(trainN)*int64(ncells) + int64(n)*int64(ncells)}
	c.built = true
	return order, nil
}

// cellRange returns the grouped row range of cell c.
func (c *ivfCoarse) cellRange(cell int32) (lo, hi int32) {
	return c.cellStart[cell], c.cellStart[cell+1]
}

// probeMulti is the batched coarse assignment: every centroid is scored
// against all queries in one multi-query blocked pass (the centroid arena
// is itself a small scan) and charged to st, then each query's nprobe
// nearest cells are selected in ascending centroid distance (ties broken
// by cell id, keeping the order deterministic; a NaN distance sorts after
// +Inf — see cellKey for when one can occur). The returned
// flat table holds query qi's probe order at [qi*nprobe : (qi+1)*nprobe];
// it aliases s.mprobe and is valid until the scratch's next probe. nprobe
// must already be clamped to the cell count, so every query selects
// exactly nprobe cells.
func (c *ivfCoarse) probeMulti(queries [][]float32, nprobe int, st *Stats, s *searchScratch) []int32 {
	ncells := c.cents.Rows()
	qn := len(queries)
	s.mdists = grow(s.mdists, qn*ncells)
	s.mouts = grow(s.mouts, qn)
	for qi := 0; qi < qn; qi++ {
		s.mouts[qi] = s.mdists[qi*ncells : (qi+1)*ncells]
	}
	linalg.DistanceMultiScatter(c.metric, queries, c.cents.Data(), s.mouts)
	accumulate(st, Stats{DistComps: int64(qn) * int64(ncells)})
	s.mprobe = grow(s.mprobe, qn*nprobe)
	for qi := 0; qi < qn; qi++ {
		selectCells(s.mouts[qi], s.mprobe[qi*nprobe:(qi+1)*nprobe], s)
	}
	return s.mprobe
}

// selectCells writes the len(dst) cells nearest by precomputed centroid
// distance into dst, in ascending distance with ties broken by cell id.
// Every cell becomes one cellKey, so the keys are distinct and their
// unsigned order is the probe order: an exact selection moves the len(dst)
// smallest to the front of s.keys and only those survivors are sorted.
// len(dst) must lie in [1, len(dists)].
func selectCells(dists []float32, dst []int32, s *searchScratch) {
	keys, tmp := grow(s.keys, len(dists)), grow(s.keysTmp, len(dists))
	s.keys, s.keysTmp = keys, tmp
	for cell, d := range dists {
		keys[cell] = cellKey(d, cell)
	}
	sel := selectSmallest(keys, tmp, len(dst))
	slices.Sort(sel)
	for i, key := range sel {
		dst[i] = int32(uint32(key))
	}
}

// cellKey packs a centroid distance above its cell id into one key whose
// unsigned order is (distance, id) order: the distance's bits are mapped so
// that unsigned order is float order (a negative flipped whole, the sign
// bit set on the rest). d+0 folds −0 onto +0 so the two tie, and a NaN of
// any sign or payload maps to the top, after +Inf. Through a vdms
// collection that rule is unreachable: its L2/IP norm bound keeps every
// query's distance to a centroid (a mean of rows, no longer than the
// longest) finite, and Angular rows are unit length. A direct caller of
// the index with unbounded vectors can still overflow an inner product to
// NaN, so the rule stays.
func cellKey(d float32, cell int) uint64 {
	b := math.Float32bits(d + 0)
	b ^= uint32(int32(b)>>31) | 1<<31
	if d != d {
		b = math.MaxUint32
	}
	return uint64(b)<<32 | uint64(uint32(cell))
}

// selectSmallest moves the n smallest of the distinct keys to keys[:n],
// unordered, and returns that prefix; tmp (at least len(keys) long) is the
// partition buffer. It is a quickselect: each round partitions the open
// window around its median of three into tmp without a data-dependent
// branch (every key is written to both open ends and the end it belongs to
// advances) and copies it back, after which the pivot sits at its final
// rank. A window still open after 2·log2(len(keys)) rounds is sorted
// instead, so the worst case stays O(m log m) for m = len(keys).
func selectSmallest(keys, tmp []uint64, n int) []uint64 {
	lo, hi := 0, len(keys) // keys[:lo] are among the n smallest, keys[hi:] are not
	for budget := 2 * bits.Len(uint(len(keys))); lo < n && n < hi; budget-- {
		w := keys[lo:hi]
		if budget == 0 {
			slices.Sort(w)
			break
		}
		a, b, c := 0, len(w)/2, len(w)-1
		if w[b] < w[a] {
			a, b = b, a
		}
		if w[c] < w[b] {
			b = c
			if w[b] < w[a] {
				b = a
			}
		}
		last := len(w) - 1
		w[b], w[last] = w[last], w[b]
		pivot := w[last]
		t := tmp[:len(w)]
		l, r := 0, last
		for _, x := range w[:last] {
			t[l], t[r] = x, x
			_, less := bits.Sub64(x, pivot, 0)
			l += int(less)
			r -= int(less ^ 1)
		}
		t[l] = pivot
		copy(w, t)
		if p := lo + l; p < n {
			lo = p + 1
		} else {
			hi = p
		}
	}
	return keys[:n]
}

// invertProbes inverts a flat Q×nprobe probe table cell→probers with a
// counting sort over the probed cells only, in O(Q·nprobe) whatever nlist
// is: s.mcells lists the probed cells in first-touch slot order,
// s.mcnt[i]..s.mcnt[i+1] bound the i-th one's entries in s.ment (global
// probe-slot ids, in ascending slot = ascending query order), and
// s.mregion assigns each (query, probe-slot) its contiguous region of
// s.mbuf, sized by its cell. The total region length — the number of
// (query, row) pairs the scan will score — is returned and s.mbuf is sized
// to it. This is the shared phase-2 skeleton of every IVF-family
// SearchMultiInto: after it, the owner scans each probed cell once for all
// of its probers into the regions (see probers), then replays per query in
// probe order, so the order cells are scanned in never reaches a result.
func (c *ivfCoarse) invertProbes(probes []int32, s *searchScratch) int {
	slots := len(probes)
	// s.mfill is per cell and all zero between calls: here it marks a
	// probed cell with its 1-based position in s.mcells, then serves as
	// its fill cursor, and is reset for exactly the cells touched.
	s.mfill = grow(s.mfill, c.cents.Rows())
	s.mcells = s.mcells[:0]
	s.mcnt = grow(s.mcnt, slots+1)
	clear(s.mcnt)
	for _, cell := range probes {
		pos := s.mfill[cell]
		if pos == 0 {
			s.mcells = append(s.mcells, cell)
			pos = int32(len(s.mcells))
			s.mfill[cell] = pos
		}
		s.mcnt[pos]++
	}
	for i, cell := range s.mcells {
		s.mcnt[i+1] += s.mcnt[i]
		s.mfill[cell] = s.mcnt[i]
	}
	s.ment = grow(s.ment, slots)
	for slot, cell := range probes {
		e := s.mfill[cell]
		s.mfill[cell] = e + 1
		s.ment[e] = int32(slot)
	}
	s.mregion = grow(s.mregion, slots)
	total := int32(0)
	for i, cell := range s.mcells {
		s.mfill[cell] = 0
		lo, hi := c.cellRange(cell)
		for _, slot := range s.ment[s.mcnt[i]:s.mcnt[i+1]] {
			s.mregion[slot] = total
			total += hi - lo
		}
	}
	s.mbuf = grow(s.mbuf, int(total))
	return int(total)
}

// probers gathers the scan arguments of the i-th probed cell: its grouped
// row range and, for every (query, probe-slot) probing it, in ascending
// slot order, the query's kernel argument rows[query] and the slot's
// output region of s.mbuf. The views alias s.mqrows/s.mouts and are valid
// until the next call; they are empty when the cell has no rows.
func (c *ivfCoarse) probers(i, nprobe int, rows [][]float32, s *searchScratch) (lo, hi int32, qrows, outs [][]float32) {
	elo, ehi := int(s.mcnt[i]), int(s.mcnt[i+1])
	lo, hi = c.cellRange(s.mcells[i])
	if lo == hi {
		return lo, hi, nil, nil
	}
	nq := ehi - elo
	s.mqrows = grow(s.mqrows, nq)
	s.mouts = grow(s.mouts, nq)
	for j, slot := range s.ment[elo:ehi] {
		s.mqrows[j] = rows[int(slot)/nprobe]
		o := s.mregion[slot]
		s.mouts[j] = s.mbuf[o : o+hi-lo]
	}
	return lo, hi, s.mqrows, s.mouts
}

// replayRegions is the replay of the types whose scan distances are their
// results: each query's materialized probe-slot regions are replayed in
// probe order — push (ids[row], dist) into a private top-k that excludes
// what the caller's collector excludes, then offer its sorted results to
// that collector. Per query the sequence depends only on its own probe
// order, never on the tile it rode in, so results and ties are
// bit-identical for any tile width.
func replayRegions(x *ivf, _ [][]float32, probes []int32, nprobe, k int, _ SearchParams, s *searchScratch, tops []*linalg.TopK) Stats {
	for qi := range tops {
		top := s.top.Reset(k).Exclude(tops[qi].Excluded())
		for pi := 0; pi < nprobe; pi++ {
			slot := qi*nprobe + pi
			lo, hi := x.coarse.cellRange(probes[slot])
			if lo == hi {
				continue
			}
			o := s.mregion[slot]
			top.PushBlock(x.ids[lo:hi], s.mbuf[o:o+hi-lo])
		}
		s.offer(top, tops[qi])
	}
	return Stats{}
}

func (c *ivfCoarse) clampProbe(nprobe int) int {
	if nprobe < 1 {
		nprobe = 1
	}
	if n := c.cents.Rows(); nprobe > n {
		nprobe = n
	}
	return nprobe
}

func (c *ivfCoarse) centroidBytes() int64 {
	if c.cents == nil {
		return 0
	}
	return c.cents.Bytes()
}

// gatherRows copies store's rows into a fresh arena in grouped order.
func gatherRows(store *linalg.Matrix, order []int32) *linalg.Matrix {
	out := linalg.NewMatrix(store.Dim(), len(order))
	for _, o := range order {
		out.AppendRow(store.Row(int(o)))
	}
	return out
}

// gatherIDs copies ids into grouped order.
func gatherIDs(ids []int64, order []int32) []int64 {
	out := make([]int64, len(order))
	for g, o := range order {
		out[g] = ids[o]
	}
	return out
}

// cellPayload is what an IVF type keeps of its rows, grouped cell-major:
// raw vectors, SQ8 codes or PQ codes. It hides the storage format — the
// one thing the IVF types differ in besides SCANN's replay — behind the
// steps the shared Build and SearchMultiInto need of it.
type cellPayload interface {
	// train encodes store's rows in grouped order (grouped row g is
	// store.Row(order[g])) and returns the build work it did beyond the
	// coarse training.
	train(store *linalg.Matrix, order []int32) (Stats, error)
	// prepare returns the per-query kernel arguments of one tile — the
	// queries themselves, SQ8 residuals, or ADC tables — charging st
	// whatever building them costs. The views live in s.
	prepare(queries [][]float32, st *Stats, s *searchScratch) [][]float32
	// scan scores grouped rows [lo, hi) against every prepared argument in
	// qrows with one multi-query kernel call, filling outs[i][:hi-lo].
	scan(lo, hi int32, qrows, outs [][]float32)
	// unit is the work of scoring one row against one query.
	unit() Stats
	// bytes is the resident size of the payload.
	bytes() int64
	// raw is the payload's full-precision rows in grouped order, or nil
	// when it keeps only lossy codes.
	raw() *linalg.Matrix
}

// replayFunc turns the (query, probe-slot) regions a tile's scan left in
// s.mbuf into each query's offers to its collector and returns the work
// it did beyond the scan. Per query it may depend only on that query's own
// probe order, never on the tile it rode in.
type replayFunc func(x *ivf, queries [][]float32, probes []int32, nprobe, k int, p SearchParams, s *searchScratch, tops []*linalg.TopK) Stats

// ivf is the inverted-file index (Jégou et al.): a coarse quantizer over
// cell-major posting lists. IVF_FLAT, IVF_SQ8, IVF_PQ and SCANN are this
// struct with a different payload (and, for SCANN, a different replay);
// see the table in index.go.
type ivf struct {
	coarse  *ivfCoarse
	ids     []int64 // grouped; set last by Build, so non-empty means built
	cells   cellPayload
	replay  replayFunc
	scratch scratchPool
}

func newIVF(m linalg.Metric, dim int, p BuildParams, cells cellPayload, replay replayFunc) (*ivf, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
	if nlist < 1 {
		return nil, fmt.Errorf("ivf: nlist must be >= 1, got %d", nlist)
	}
	c := &ivfCoarse{metric: m, dim: dim, nlist: nlist, seed: p.Seed, workers: p.Workers}
	return &ivf{coarse: c, cells: cells, replay: replay}, nil
}

func (x *ivf) Build(store *linalg.Matrix, ids []int64) error {
	if store.Rows() != len(ids) {
		return fmt.Errorf("ivf: %d vectors but %d ids", store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	work, err := x.cells.train(store, order)
	if err != nil {
		return err
	}
	x.coarse.buildWork.Add(work)
	x.ids = gatherIDs(ids, order)
	return nil
}

func (x *ivf) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchOneInto(x, q, k, p, st, top)
}

// SearchMultiInto shares the posting-list streaming across the query
// tile. Three phases: (1) batched coarse assignment (probeMulti) and the
// payload's per-query kernel arguments (prepare); (2) the probe table is
// inverted cell→probers with a counting sort, and each probed cell's
// contiguous row range is scanned once by the payload's multi-query
// kernel for all of its probers, materializing every (query, probe-slot)
// distance region in scratch; (3) per query, the regions are replayed in
// probe order, so results, ties, and Stats are tile-width invariant while
// each cell's rows are loaded from memory once per tile instead of once
// per probing query.
func (x *ivf) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	if len(x.ids) == 0 || k < 1 || len(queries) == 0 {
		return
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)
	rows := x.cells.prepare(queries, st, s)
	scanned := x.coarse.invertProbes(probes, s)
	for i := range s.mcells {
		lo, hi, qrows, outs := x.coarse.probers(i, nprobe, rows, s)
		if len(qrows) > 0 {
			x.cells.scan(lo, hi, qrows, outs)
		}
	}
	accumulate(st, x.cells.unit().times(int64(scanned)))
	accumulate(st, x.replay(x, queries, probes, nprobe, k, p, s, tops))
	x.scratch.put(s)
}

func (x *ivf) MemoryBytes() int64 {
	return x.cells.bytes() + x.coarse.centroidBytes() +
		int64(len(x.ids))*4 // grouped row ids
}

func (x *ivf) BuildStats() Stats { return x.coarse.buildWork }

// RawRows: the payload's full-precision rows, grouped cell-major, when it
// keeps them (IVF_FLAT, SCANN); codes-only payloads answer nil.
func (x *ivf) RawRows() (*linalg.Matrix, []int64) {
	if raw := x.cells.raw(); raw != nil {
		return raw, x.ids
	}
	return nil, nil
}

func (x *ivf) StoreAdopted() bool { return x.cells.raw() != nil }

// rawCells is IVF_FLAT's payload: the vectors themselves, scanned exactly
// by the blocked kernels.
type rawCells struct {
	metric linalg.Metric
	store  *linalg.Matrix // grouped cell-major
}

func (c *rawCells) train(store *linalg.Matrix, order []int32) (Stats, error) {
	c.store = gatherRows(store, order)
	return Stats{}, nil
}

func (c *rawCells) prepare(queries [][]float32, _ *Stats, _ *searchScratch) [][]float32 {
	return queries
}

func (c *rawCells) scan(lo, hi int32, qrows, outs [][]float32) {
	dim := c.store.Dim()
	linalg.DistanceMultiScatter(c.metric, qrows, c.store.Data()[int(lo)*dim:int(hi)*dim], outs)
}

func (c *rawCells) unit() Stats { return Stats{DistComps: 1} }

func (c *rawCells) raw() *linalg.Matrix { return c.store }

func (c *rawCells) bytes() int64 {
	if c.store == nil {
		return 0
	}
	return c.store.Bytes()
}
