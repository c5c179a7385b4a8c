package index

import (
	"fmt"
	"math"
	"testing"

	"vdtuner/internal/linalg"
)

// refSearchLayer is the layer beam search written with library parts: a
// linalg.TopK of width ef for the beam, a sorted frontier popped until a
// full beam's worst is passed and never cut, and a branching visited
// check. It is the reference searchLayer must match to the bit, ties
// included.
func refSearchLayer(h *hnsw, q []float32, eps []int32, ef, l int, st *Stats, s *searchScratch) []linalg.Neighbor {
	stamp := s.beginVisit(h.store.Rows())
	var frontier []hnswCand
	results := linalg.NewTopK(ef)
	for i, ep := range refScoreUnvisited(h, q, eps, stamp, st, s) {
		d := s.dists[i]
		frontier = append(frontier, hnswCand{ep, d})
		results.Push(int64(ep), d)
	}
	for i := 1; i < len(frontier); i++ {
		for j := i; j > 0 && frontier[j].d < frontier[j-1].d; j-- {
			frontier[j], frontier[j-1] = frontier[j-1], frontier[j]
		}
	}
	head := 0
	for head < len(frontier) {
		c := frontier[head]
		head++
		if results.Full() && c.d > results.Worst() {
			break
		}
		for i, nb := range refScoreUnvisited(h, q, h.links[c.node][l], stamp, st, s) {
			d := s.dists[i]
			if !results.Full() || d < results.Worst() {
				results.Push(int64(nb), d)
				lo, hi := head, len(frontier)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if frontier[mid].d < d {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				frontier = append(frontier, hnswCand{})
				copy(frontier[lo+1:], frontier[lo:])
				frontier[lo] = hnswCand{nb, d}
			}
		}
	}
	return results.Results()
}

// refScoreUnvisited is scoreUnvisited with the visited check as a branch.
func refScoreUnvisited(h *hnsw, q []float32, nodes []int32, stamp uint32, st *Stats, s *searchScratch) []int32 {
	var fresh []int32
	for _, nb := range nodes {
		if s.visited[nb] != stamp {
			s.visited[nb] = stamp
			fresh = append(fresh, nb)
		}
	}
	s.dists = grow(s.dists, len(fresh))
	h.distRows(st, q, fresh, s.dists)
	return fresh
}

// tieCorpus is a corpus built to tie: 150 clustered 12-d rows, each stored
// three times, then every point of the {0, 1, 2}^3 lattice in the first
// three coordinates (zero elsewhere), whose distances to a lattice query
// coincide by the dozen under every metric.
func tieCorpus(t testing.TB) ([][]float32, []int64, [][]float32) {
	base, _, queries, _ := testData(t, 150, 8, 12, 1, 5150)
	var vecs [][]float32
	for _, v := range base {
		vecs = append(vecs, v, v, v)
	}
	var lattice [][]float32
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				v := make([]float32, 12)
				v[0], v[1], v[2] = float32(a), float32(b), float32(c)
				lattice = append(lattice, v)
			}
		}
	}
	vecs = append(vecs, lattice...)
	ids := make([]int64, len(vecs))
	for i := range ids {
		ids[i] = int64(i)
	}
	// Queries: stored rows (each the head of a triple), lattice points,
	// and off-corpus points.
	queries = append(queries, base[0], base[77], lattice[0], lattice[13], lattice[26])
	return vecs, ids, queries
}

// tieGraphs pins the build over tieCorpus (M 6, efConstruction 40, seed 3)
// per metric: the graph hash and build DistComps, recorded at the parent
// commit, whose build ran refSearchLayer's beam. IP and Angular differ by
// a constant, so they build the same graph.
var tieGraphs = map[linalg.Metric]struct {
	graph uint64
	comps int64
}{
	linalg.L2:           {0x77cc5963c7d01f2d, 272071},
	linalg.InnerProduct: {0x61b95c1b473208e6, 268544},
	linalg.Angular:      {0x61b95c1b473208e6, 268544},
}

// TestHNSWBeamMatchesReference runs searchLayer and refSearchLayer from
// the same entry points on every layer of a graph over tieCorpus, for L2,
// IP and Angular and ef ∈ {k, 24, 64, 200}: the candidates, the bits of
// their distances and the DistComps charged must be equal. The build that
// made the graph runs searchLayer too, so its hash is pinned as well.
func TestHNSWBeamMatchesReference(t *testing.T) {
	const k = 10
	vecs, ids, queries := tieCorpus(t)
	for _, metric := range []linalg.Metric{linalg.L2, linalg.InnerProduct, linalg.Angular} {
		t.Run(metric.String(), func(t *testing.T) {
			idx, err := New(HNSW, metric, 12, BuildParams{HNSWM: 6, EfConstruction: 40, Seed: 3, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
				t.Fatal(err)
			}
			h := idx.(*hnsw)
			if got, want := hashHNSW(h), tieGraphs[metric]; got != want.graph || h.work.DistComps != want.comps {
				t.Errorf("build: graph %#x comps %d, want %#x %d", got, h.work.DistComps, want.graph, want.comps)
			}
			var s, rs searchScratch
			for l := 0; l <= h.maxLevel; l++ {
				// The entry points: the graph's entry and up to fifteen more
				// nodes present on layer l, in node order — more than the
				// narrowest beam holds.
				eps := []int32{int32(h.entry)}
				for n := 0; n < len(h.levels) && len(eps) < 16; n++ {
					if h.levels[n] >= l && n != h.entry {
						eps = append(eps, int32(n))
					}
				}
				for qi, q := range queries {
					for _, ef := range []int{k, 24, 64, 200} {
						var st, rst Stats
						got := h.searchLayer(q, eps, ef, l, &st, &s)
						want := refSearchLayer(h, q, eps, ef, l, &rst, &rs)
						where := fmt.Sprintf("layer %d query %d ef %d", l, qi, ef)
						if st != rst {
							t.Fatalf("%s: stats %+v, reference %+v", where, st, rst)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d candidates, reference %d", where, len(got), len(want))
						}
						for i := range got {
							if int64(got[i].node) != want[i].ID || math.Float32bits(got[i].d) != math.Float32bits(want[i].Dist) {
								t.Fatalf("%s: candidate %d is (%d, %x), reference (%d, %x)", where, i,
									got[i].node, math.Float32bits(got[i].d), want[i].ID, math.Float32bits(want[i].Dist))
							}
						}
					}
				}
			}
		})
	}
}
