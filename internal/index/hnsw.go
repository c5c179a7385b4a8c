package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// hnsw implements the Hierarchical Navigable Small World graph (Malkov &
// Yashunin), matching Milvus' HNSW index. Build parameters: M (graph
// degree) and efConstruction (build beam width). Search parameter: ef
// (query beam width, clamped up to k plus the collector's excluded ids).
//
// Vectors live in a flat arena (linalg.Matrix); the beam search tracks
// visited nodes in an epoch-stamped array and draws its frontier and its
// beam — a bounded max-heap that keeps and orders tied candidates exactly
// as a linalg.TopK would — from a reusable scratch, so a steady-state
// query performs no heap allocations beyond the returned neighbor slice.
//
// Neither traversal nor pruning scores a node's neighbors one pair at a
// time. Expansion is batched: a traversal step first collects the node's
// unvisited neighbors, scores them in one linalg.DistanceRows call (four
// gathered rows per kernel call), then pushes them in link order, so the
// beam sees the same distances in the same order as a pair-by-pair walk.
// Pruning scores once: an overfull link list's distances to its node are
// computed in one call, the (neighbor, distance) pairs sorted, and the
// distances handed on to the selection heuristic. Stats are a
// cost model, not a call count, and stay those of the pair-by-pair
// formulation — pruning is charged two evaluations per sort comparison
// and selection one per candidate examined, though neither recomputes —
// because the engine derives simulated build time from them.
//
// Build is parallel but deterministic. Nodes are inserted in waves whose
// sizes depend only on the corpus size, and a wave has three steps. Every
// node plans its neighbor lists concurrently against the frozen pre-wave
// graph (a pure read). The plans are then adopted sequentially in node
// order: forward links, the entry point, and the wave's reverse links
// recorded as (target, layer, node) ops in a fixed number of buckets keyed
// by target. Last, the buckets are replayed concurrently, each in recorded
// order: every reverse-link target is a pre-wave node (plans saw nothing
// newer), and one (target, layer) list depends only on its own ops, in
// their order, and on the vectors, so lists in different buckets never
// touch. Planning never observes intra-wave mutations, and neither the wave
// schedule nor the bucket count depends on the worker count, so workers=1
// and workers=N build byte-identical graphs; Stats are integer sums over
// plans and buckets, so build accounting is exact.
type hnsw struct {
	metric linalg.Metric
	dim    int
	m      int // max links per node on upper layers; layer 0 allows 2M
	efCons int
	// pinEf, when positive, is the query beam width whatever
	// SearchParams.Ef says (AUTOINDEX).
	pinEf   int
	seed    int64
	workers int

	store    *linalg.Matrix
	ids      []int64
	links    [][][]int32 // links[node][layer] -> neighbor nodes
	levels   []int
	entry    int
	maxLevel int
	built    bool
	work     Stats

	levelMult float64
	scratch   scratchPool
}

// hnswWaveCap bounds how many nodes plan concurrently per wave. It is a
// constant (never derived from the worker count) so the wave schedule, and
// therefore the built graph, is identical for any Workers value.
const hnswWaveCap = 64

// hnswLinkBuckets is how many buckets a wave's reverse links are sharded
// into (by target node). Like hnswWaveCap it is a constant: the built graph
// does not depend on it, and the unit of parallel work must not depend on
// the worker count.
const hnswLinkBuckets = 64

func newHNSW(metric linalg.Metric, dim int, p BuildParams, pinEf int) (*hnsw, error) {
	m := p.HNSWM
	if m == 0 {
		m = 16
	}
	if m < 2 {
		return nil, fmt.Errorf("hnsw: M must be >= 2, got %d", m)
	}
	ef := p.EfConstruction
	if ef == 0 {
		ef = 128
	}
	if ef < m {
		ef = m
	}
	return &hnsw{
		metric: metric, dim: dim, m: m, efCons: ef, pinEf: pinEf,
		seed: p.Seed, workers: p.Workers,
		entry: -1, maxLevel: -1,
		levelMult: 1 / math.Log(float64(m)),
	}, nil
}

// dist evaluates one distance and charges it to st.
func (h *hnsw) dist(st *Stats, a, b []float32) float32 {
	st.DistComps++
	return linalg.Distance(h.metric, a, b)
}

// distRows evaluates the distances of q to the given nodes in one batched
// call, charging one evaluation per node to st.
func (h *hnsw) distRows(st *Stats, q []float32, nodes []int32, out []float32) {
	st.DistComps += int64(len(nodes))
	linalg.DistanceRows(h.metric, q, h.store, nodes, out)
}

// row is the arena accessor for node vectors.
func (h *hnsw) row(i int32) []float32 { return h.store.Row(int(i)) }

func (h *hnsw) Build(store *linalg.Matrix, ids []int64) error {
	if h.built {
		return fmt.Errorf("hnsw: Build called twice")
	}
	if store.Rows() != len(ids) {
		return fmt.Errorf("hnsw: %d vectors but %d ids", store.Rows(), len(ids))
	}
	if store.Dim() != h.dim {
		return fmt.Errorf("hnsw: store has dim %d, want %d", store.Dim(), h.dim)
	}
	if !store.Packed() {
		return fmt.Errorf("hnsw: store must be packed (stride == dim)")
	}
	n := store.Rows()
	h.store = store
	h.ids = ids
	h.links = make([][][]int32, n)
	h.levels = make([]int, n)
	// Draw every level up front, in node order, so the rng consumption is
	// independent of the wave/parallel structure.
	rng := rand.New(rand.NewSource(h.seed))
	for i := range h.levels {
		h.levels[i] = h.randomLevel(rng)
	}

	if n > 0 {
		h.links[0] = make([][]int32, h.levels[0]+1)
		h.entry = 0
		h.maxLevel = h.levels[0]
	}
	workers := parallel.Workers(h.workers)
	plans := make([]hnswPlan, hnswWaveCap)
	// One search scratch per worker, not per plan slot: the scratch's
	// visited array is O(n), so scaling it by the worker count (instead
	// of the 64-slot wave cap) keeps transient build memory bounded by
	// the actual parallelism. Scratch state never influences results, so
	// this does not affect the deterministic wave schedule.
	scratches := make([]searchScratch, parallel.WorkerCount(workers, hnswWaveCap))
	buckets := make([]hnswLinkBucket, hnswLinkBuckets)
	linkBack := func(b int) { h.linkBack(&buckets[b]) }
	for lo := 1; lo < n; {
		// Wave size grows with the inserted prefix (so early nodes still
		// see a dense graph) up to the fixed cap; it never depends on the
		// worker count.
		wave := lo
		if wave > hnswWaveCap {
			wave = hnswWaveCap
		}
		if lo+wave > n {
			wave = n - lo
		}
		// Plan phase: pure reads of the pre-wave graph, one goroutine per
		// node, private Stats per plan slot and one scratch per worker.
		parallel.WorkerParallel(workers, wave, func(worker, w int) {
			h.plan(lo+w, &plans[w], &scratches[worker])
		})
		// Adopt phase: sequential, in node order.
		for w := 0; w < wave; w++ {
			h.work.Add(plans[w].work)
			h.adopt(lo+w, &plans[w], buckets)
		}
		// Reverse-link phase: buckets hold disjoint targets, so they replay
		// concurrently.
		parallel.Parallel(workers, len(buckets), linkBack)
		lo += wave
	}
	for b := range buckets {
		h.work.Add(buckets[b].work)
	}
	h.repairConnectivity()
	h.built = true
	return nil
}

func (h *hnsw) randomLevel(rng *rand.Rand) int {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return int(-math.Log(u) * h.levelMult)
}

// hnswPlan is one node's planned insertion: the neighbor list per layer it
// will adopt, computed against the frozen pre-wave graph, plus the distance
// accounting of the planning search and the buffers reused across waves —
// the entry points with their beam distances, and selectNeighbors' scratch.
type hnswPlan struct {
	layers   [][]int32
	work     Stats
	eps      []int32
	epD      []float32
	rejected []int32
}

// plan computes node's neighbor lists against the current (frozen) graph,
// drawing transient search state from scratch (owned by the calling worker
// for the whole wave). It performs no writes to the graph and charges all
// distance work to the plan's private Stats, so plans for a whole wave may
// run concurrently.
func (h *hnsw) plan(node int, pl *hnswPlan, scratch *searchScratch) {
	pl.work = Stats{}
	level := h.levels[node]
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	pl.layers = pl.layers[:0]
	for l := 0; l <= top; l++ {
		pl.layers = append(pl.layers, nil)
	}
	q := h.row(int32(node))
	ep := h.entry
	for l := h.maxLevel; l > level; l-- {
		epD := h.dist(&pl.work, q, h.row(int32(ep)))
		ep, _ = h.greedyLayer(q, ep, epD, l, &pl.work, scratch)
	}
	pl.eps = append(pl.eps[:0], int32(ep))
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(q, pl.eps, h.efCons, l, &pl.work, scratch)
		// The beam's nodes, in ascending-distance order, seed both the
		// neighbor selection (with the distances the beam already holds)
		// and the next layer's entry points.
		pl.eps, pl.epD = pl.eps[:0], pl.epD[:0]
		for _, c := range cands {
			pl.eps = append(pl.eps, c.node)
			pl.epD = append(pl.epD, c.d)
		}
		pl.layers[l] = h.selectNeighbors(pl.eps, pl.epD, h.m, &pl.work, &pl.rejected)
	}
}

// hnswLinkOp is one planned reverse link: node joins target's list on layer.
type hnswLinkOp struct {
	target, node int32
	layer        int
}

// hnswLinkBucket is one shard of a wave's reverse links — the ops whose
// target falls in the bucket, in adoption order — with the pruning scratch
// of whichever goroutine replays it and the pruning work of the whole build
// so far.
type hnswLinkBucket struct {
	ops   []hnswLinkOp
	prune pruneScratch
	work  Stats
}

// adopt installs a planned node's own side: its forward links, the entry
// point if it tops the graph, and one reverse-link op per selected neighbor
// in the target's bucket. Callers run it sequentially in node order, which
// is therefore the order of every (target, layer) list's ops.
func (h *hnsw) adopt(node int, pl *hnswPlan, buckets []hnswLinkBucket) {
	level := h.levels[node]
	h.links[node] = make([][]int32, level+1)
	for l := len(pl.layers) - 1; l >= 0; l-- {
		// selectNeighbors returned a fresh slice, so the graph can adopt
		// it directly.
		h.links[node][l] = pl.layers[l]
		for _, nb := range pl.layers[l] {
			b := &buckets[int(nb)%len(buckets)]
			b.ops = append(b.ops, hnswLinkOp{target: nb, node: int32(node), layer: l})
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = node
	}
}

// linkBack replays one bucket's reverse links in recorded order, pruning
// every list that overflows, and adds the pruning work to b.work. It
// writes only the lists of the bucket's own targets and reads only those
// and the vectors, so distinct buckets may run concurrently.
func (h *hnsw) linkBack(b *hnswLinkBucket) {
	for _, op := range b.ops {
		maxM := h.m
		if op.layer == 0 {
			maxM = 2 * h.m
		}
		list := append(h.links[op.target][op.layer], op.node)
		if len(list) > maxM {
			list = h.pruneNeighbors(int(op.target), list, maxM, &b.prune, &b.work)
		}
		h.links[op.target][op.layer] = list
	}
	b.ops = b.ops[:0]
}

// greedyLayer walks layer l greedily from cur (at distance curD from q)
// toward q and returns the local minimum with its distance, charging
// distance work to st. Each step scores all of the current node's links at
// once; the first strictly closer one in link order wins ties, as when
// they were scored one by one.
func (h *hnsw) greedyLayer(q []float32, cur int, curD float32, l int, st *Stats, s *searchScratch) (int, float32) {
	for {
		nbs := h.links[cur][l]
		s.dists = grow(s.dists, len(nbs))
		h.distRows(st, q, nbs, s.dists)
		improved := false
		for i, nb := range nbs {
			if d := s.dists[i]; d < curD {
				cur, curD = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur, curD
		}
	}
}

// searchLayer is the beam search of the HNSW paper (Algorithm 2). It
// returns up to ef candidates sorted by ascending distance, charging every
// distance evaluation to st. The returned slice is owned by s and valid
// until s's next searchLayer. It only reads the graph, so concurrent calls
// with distinct scratches are safe while no writer runs.
//
// It keeps the paper's two structures: the beam, an ef-bounded max-heap
// (s.beam) whose root is the worst kept candidate, and the frontier, the
// unexpanded candidates in ascending-distance order. The heap makes the
// same comparisons in the same order as a linalg.TopK of width ef, so it
// keeps — and evicts — the same candidates, ties included, and sorts them
// out in the same order. The walk stops at the first frontier entry farther
// than a full beam's worst; that worst never rises, so such an entry can
// only ever end the walk, and the frontier drops it as soon as it is one.
func (h *hnsw) searchLayer(q []float32, eps []int32, ef, l int, st *Stats, s *searchScratch) []hnswCand {
	stamp := s.beginVisit(h.store.Rows())
	frontier := s.frontier[:0]
	beam := s.beam[:0]
	for i, ep := range h.scoreUnvisited(q, eps, stamp, st, s) {
		d := s.dists[i]
		frontier = append(frontier, hnswCand{ep, d})
		beam = beamPush(beam, ef, hnswCand{ep, d})
	}
	// Entry points arrive in ascending-distance order (a previous beam's
	// sorted output, or a single node), so this insertion sort is a
	// near-no-op guard; it is stable, preserving the order of equal
	// distances.
	for i := 1; i < len(frontier); i++ {
		for j := i; j > 0 && frontier[j].d < frontier[j-1].d; j-- {
			frontier[j], frontier[j-1] = frontier[j-1], frontier[j]
		}
	}
	// head is the frontier's pop cursor: frontier[head:] is the live
	// min-ordered queue, kept sorted by insertion.
	head := 0
	for head < len(frontier) {
		c := frontier[head]
		head++
		if len(beam) == ef && c.d > beam[0].d {
			break
		}
		for i, nb := range h.scoreUnvisited(q, h.links[c.node][l], stamp, st, s) {
			d := s.dists[i]
			if len(beam) == ef && d >= beam[0].d {
				continue
			}
			beam = beamPush(beam, ef, hnswCand{nb, d})
			// Insert keeping frontier[head:] sorted, ahead of equal
			// distances, by shifting the farther entries up one from the
			// tail (the queue stays about ef long, so this beats heap
			// churn), then drop the tail a full beam has passed.
			j := len(frontier)
			frontier = append(frontier, hnswCand{})
			for j > head && frontier[j-1].d >= d {
				frontier[j] = frontier[j-1]
				j--
			}
			frontier[j] = hnswCand{nb, d}
			if len(beam) == ef {
				worst, n := beam[0].d, len(frontier)
				for n > head && frontier[n-1].d > worst {
					n--
				}
				frontier = frontier[:n]
			}
		}
	}
	s.frontier = frontier
	beamSort(beam)
	s.beam = beam
	return beam
}

// beamPush offers c to the beam, a max-heap on distance of at most ef
// candidates, exactly as linalg.TopK.Push does: appended and sifted up
// while there is room, else kept in place of the root only when strictly
// closer than it.
func beamPush(beam []hnswCand, ef int, c hnswCand) []hnswCand {
	if len(beam) < ef {
		beam = append(beam, c)
		i := len(beam) - 1
		for i > 0 {
			p := (i - 1) / 2
			if beam[p].d >= c.d {
				break
			}
			beam[i] = beam[p]
			i = p
		}
		beam[i] = c
		return beam
	}
	if c.d >= beam[0].d {
		return beam
	}
	beamSiftDown(beam, c)
	return beam
}

// beamSiftDown places c in the heap from the root down, moving a hole
// instead of swapping: at each level it makes linalg.TopK's siftDown
// comparisons in the same order (left child, then right, each against the
// larger so far), so the heap ends in the same layout.
func beamSiftDown(beam []hnswCand, c hnswCand) {
	n, i := len(beam), 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		big, bigD := i, c.d
		if beam[l].d > bigD {
			big, bigD = l, beam[l].d
		}
		if r := l + 1; r < n && beam[r].d > bigD {
			big = r
		}
		if big == i {
			break
		}
		beam[i] = beam[big]
		i = big
	}
	beam[i] = c
}

// beamSort heap-sorts the beam into ascending distance in place, moving
// the root to the end of the shrinking heap as linalg.TopK.AppendResults
// does, so the order of equal distances is the same.
func beamSort(beam []hnswCand) {
	for last := len(beam) - 1; last > 0; last-- {
		root := beam[0]
		beamSiftDown(beam[:last], beam[last])
		beam[last] = root
	}
}

// scoreUnvisited marks the not-yet-visited nodes among nodes as visited and
// scores them against q in one batched call. It returns them in their
// original order (valid until s's next scoreUnvisited) with their
// distances in s.dists, one evaluation each charged to st. The marking
// loop has no branch: every node is written to the next free slot, which
// only a node not yet stamped claims.
func (h *hnsw) scoreUnvisited(q []float32, nodes []int32, stamp uint32, st *Stats, s *searchScratch) []int32 {
	fresh := grow(s.fresh, len(nodes))
	visited := s.visited
	n := 0
	for _, nb := range nodes {
		fresh[n] = nb
		seen := visited[nb] ^ stamp // 0 iff already visited
		visited[nb] = stamp
		n += int((seen | -seen) >> 31)
	}
	fresh = fresh[:n]
	s.fresh = fresh
	s.dists = grow(s.dists, n)
	h.distRows(st, q, fresh, s.dists)
	return fresh
}

// selectNeighbors keeps up to m diverse candidates using the HNSW
// paper's Algorithm 4 heuristic: a candidate (scanned in ascending
// distance to the query) is kept only when it is closer to the query than
// to every already-kept neighbor, which preserves graph connectivity
// across cluster boundaries. Remaining slots are filled with the closest
// rejected candidates, mirroring hnswlib's keepPrunedConnections.
//
// dq[i] is cands[i]'s distance to the query, which every caller already
// holds; st is still charged one evaluation per candidate examined (see
// the type comment). The returned slice is fresh — the graph adopts it;
// the rejected list is built in *scratch, which keeps the grown buffer for
// the caller's next call.
func (h *hnsw) selectNeighbors(cands []int32, dq []float32, m int, st *Stats, scratch *[]int32) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		copy(out, cands)
		return out
	}
	out := make([]int32, 0, m)
	rejected := (*scratch)[:0]
	for i, c := range cands {
		if len(out) >= m {
			break
		}
		st.DistComps++
		keep := true
		var buf [4]float32
		for lo := 0; lo < len(out) && keep; lo += 4 {
			hi := min(lo+4, len(out))
			linalg.DistanceRows(h.metric, h.row(c), h.store, out[lo:hi], buf[:hi-lo])
			for _, d := range buf[:hi-lo] {
				st.DistComps++
				if d < dq[i] {
					keep = false
					break
				}
			}
		}
		if keep {
			out = append(out, c)
		} else {
			rejected = append(rejected, c)
		}
	}
	*scratch = rejected
	for _, c := range rejected {
		if len(out) >= m {
			break
		}
		out = append(out, c)
	}
	return out
}

// pruneScratch is pruneNeighbors' reusable transient state, and the
// sort.Interface that orders a link list nbs by its memoized distances d.
// The comparator calls are counted because Stats charge for them, which
// makes the sort algorithm part of the build's output: sort.Sort and
// sort.Slice run the same generated pdqsort (same calls, same permutation,
// ties included, for the same comparison outcomes); a different sort
// would change build DistComps.
type pruneScratch struct {
	nbs      []int32
	d        []float32
	compars  int64
	rejected []int32
}

func (p *pruneScratch) Len() int { return len(p.nbs) }

func (p *pruneScratch) Less(i, j int) bool {
	p.compars++
	return p.d[i] < p.d[j]
}

func (p *pruneScratch) Swap(i, j int) {
	p.nbs[i], p.nbs[j] = p.nbs[j], p.nbs[i]
	p.d[i], p.d[j] = p.d[j], p.d[i]
}

// pruneNeighbors trims node's link list to maxM diverse neighbors (the
// same Algorithm 4 heuristic applied with the node itself as the query).
// The list's distances to the node are computed once and carried through
// the sort into the selection; the sort is charged the two evaluations per
// comparison its comparator used to make. It reads the vectors and nbs,
// never the graph, keeps its transient state in p and charges st, so calls
// with distinct p and st (one pair per reverse-link bucket) may run
// concurrently.
func (h *hnsw) pruneNeighbors(node int, nbs []int32, maxM int, p *pruneScratch, st *Stats) []int32 {
	p.nbs, p.d, p.compars = nbs, grow(p.d, len(nbs)), 0
	linalg.DistanceRows(h.metric, h.row(int32(node)), h.store, nbs, p.d)
	sort.Sort(p)
	st.DistComps += 2 * p.compars
	return h.selectNeighbors(nbs, p.d, maxM, st, &p.rejected)
}

// repairConnectivity links any layer-0 node unreachable from the entry
// point to its nearest reachable node. Distance-based pruning can orphan
// nodes (it may drop a node's only inbound edge); orphans would be
// permanently unfindable, so the build pays a small extra cost to
// reconnect them. The work is charged to build stats.
func (h *hnsw) repairConnectivity() {
	n := h.store.Rows()
	if n == 0 || h.entry < 0 {
		return
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	queue = append(queue, int32(h.entry))
	visited[h.entry] = true
	reachable := make([]int32, 0, n)
	var dists []float32 // orphans are rare: allocated on the first one
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reachable = append(reachable, u)
		for _, nb := range h.links[u][0] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for u := 0; u < n; u++ {
		if visited[u] {
			continue
		}
		// Link u to its nearest already-reachable node, bidirectionally,
		// then absorb u's component.
		if dists == nil {
			dists = make([]float32, n)
		}
		h.distRows(&h.work, h.row(int32(u)), reachable, dists)
		best, bestD := reachable[0], dists[0]
		for i, r := range reachable {
			if dists[i] < bestD {
				best, bestD = r, dists[i]
			}
		}
		h.links[u][0] = append(h.links[u][0], best)
		h.links[best][0] = append(h.links[best][0], int32(u))
		queue = append(queue[:0], int32(u))
		visited[u] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			reachable = append(reachable, v)
			for _, nb := range h.links[v][0] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
}

// searchWith is HNSW's one search body: greedy descent through the upper
// layers, an ef-wide beam on layer 0, and the beam's k best ids not in
// excl — by private top-k, so the result does not depend on the caller's
// collector capacity — left sorted in s.res. The beam walks through
// excluded nodes like any other, so its width is floored at k plus the
// excluded ids: it still holds k live nodes when every excluded id sits
// among the nearest.
func (h *hnsw) searchWith(q []float32, k int, excl map[int64]struct{}, p SearchParams, st *Stats, s *searchScratch) {
	s.res = s.res[:0]
	if h.store == nil || h.store.Rows() == 0 || k < 1 || h.entry < 0 {
		return
	}
	ef := p.Ef
	if h.pinEf > 0 {
		ef = h.pinEf
	}
	ef = max(ef, k+len(excl))
	var work Stats
	cur := h.entry
	curD := h.dist(&work, q, h.row(int32(cur)))
	for l := h.maxLevel; l > 0; l-- {
		cur, curD = h.greedyLayer(q, cur, curD, l, &work, s)
	}
	s.eps = append(s.eps[:0], int32(cur))
	// The layer-0 beam already carries every candidate's exact distance,
	// so the top-k is filled straight from it — no re-computation (and no
	// second DistComps charge) for the returned candidates.
	cands := h.searchLayer(q, s.eps, ef, 0, &work, s)
	top := s.top.Reset(k).Exclude(excl)
	for _, c := range cands {
		top.Push(h.ids[c.node], c.d)
	}
	accumulate(st, work)
	s.res = top.AppendResults(s.res)
}

func (h *hnsw) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	s := h.scratch.get()
	h.searchWith(q, k, top.Excluded(), p, st, s)
	for _, n := range s.res {
		top.Push(n.ID, n.Dist)
	}
	h.scratch.put(s)
}

// SearchMultiInto runs the queries serially: graph traversal visits
// query-dependent neighborhoods, so there is no shared arena tile for the
// multi-query kernels to amortize.
func (h *hnsw) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	for i, q := range queries {
		h.SearchInto(q, k, p, st, tops[i])
	}
}

func (h *hnsw) MemoryBytes() int64 {
	var linkCount int64
	for _, perNode := range h.links {
		for _, l := range perNode {
			linkCount += int64(len(l))
		}
	}
	var vecBytes int64
	if h.store != nil {
		vecBytes = h.store.Bytes()
	}
	return vecBytes + linkCount*4
}

func (h *hnsw) BuildStats() Stats { return h.work }

// RawRows: hnsw retains the caller's arena as its vector storage.
func (h *hnsw) RawRows() (*linalg.Matrix, []int64) { return h.store, h.ids }

func (h *hnsw) StoreAdopted() bool { return true }
