// Package workload provides the evaluation datasets and query workloads.
//
// The paper evaluates on GloVe, Keyword-match, Geo-radius, ArXiv-titles and
// deep-image from vector-db-benchmark. Those corpora are not available
// offline, so this package generates synthetic datasets with the same
// statistical character (dimensionality, cluster structure, inter-dimension
// correlation) at a laptop-friendly scale; see DESIGN.md "Substitutions".
// Ground truth is exact top-K computed by brute force once per dataset.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// Dataset is an immutable evaluation corpus: stored vectors, query vectors
// and exact ground-truth neighbor ids for each query.
type Dataset struct {
	// Name identifies the dataset in reports.
	Name string
	// Dim is the vector dimensionality.
	Dim int
	// Metric is the distance used for ground truth and search. Angular
	// datasets are pre-normalized and use L2 internally (identical
	// ranking on unit vectors).
	Metric linalg.Metric
	// Vectors is the stored corpus.
	Vectors [][]float32
	// Queries are the search requests replayed against the system.
	Queries [][]float32
	// K is the ground-truth depth (the paper uses top-100; scaled-down
	// datasets use top-10 by default).
	K int
	// Truth[i] lists the exact K nearest ids of Queries[i].
	Truth [][]int64

	// store is the flat arena backing Vectors; see Store.
	store     *linalg.Matrix
	storeOnce sync.Once
}

// Store returns the corpus as one flat row-major arena — the
// cache-contiguous layout every index builds from. The arena is created
// once (the dataset constructors pre-seal it) and Vectors' rows alias its
// rows, so both views stay one copy.
func (d *Dataset) Store() *linalg.Matrix {
	d.storeOnce.Do(d.sealArena)
	return d.store
}

func (d *Dataset) sealArena() {
	m := linalg.NewMatrix(d.Dim, len(d.Vectors))
	for i, v := range d.Vectors {
		m.AppendRow(v)
		d.Vectors[i] = m.Row(i)
	}
	d.store = m
}

// IDs returns the implicit id of each stored vector (its position).
func (d *Dataset) IDs() []int64 {
	ids := make([]int64, len(d.Vectors))
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// RawBytes is the in-memory size of the raw stored vectors.
func (d *Dataset) RawBytes() int64 {
	return int64(len(d.Vectors)) * int64(d.Dim) * 4
}

// Recall computes recall@K of one result list against the ground truth of
// query qi: the fraction of the true top-K that was retrieved.
func (d *Dataset) Recall(qi int, results []linalg.Neighbor) float64 {
	truth := d.Truth[qi]
	if len(truth) == 0 {
		return 0
	}
	want := make(map[int64]struct{}, len(truth))
	for _, id := range truth {
		want[id] = struct{}{}
	}
	hit := 0
	for _, r := range results {
		if _, ok := want[r.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// computeTruth fills d.Truth by exact brute force under d.Metric, one
// query per chunk of the shared pool: one block scan of the query over the
// whole arena, pushed in row order.
func (d *Dataset) computeTruth() {
	d.Truth = make([][]int64, len(d.Queries))
	store := d.Store()
	parallel.Parallel(0, len(d.Queries), func(qi int) {
		dists := make([]float32, store.Rows())
		linalg.DistanceBlock(d.Metric, d.Queries[qi], store.Data(), dists)
		top := linalg.NewTopK(d.K)
		for i, dist := range dists {
			top.Push(int64(i), dist)
		}
		res := top.Results()
		ids := make([]int64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		d.Truth[qi] = ids
	})
}

// canonicalMetric puts a corpus into the form every Dataset carries and
// returns the metric it is then searched under: angular vectors and
// queries are normalized in place and the metric becomes L2 — what an
// angular engine does with its rows and queries. Every constructor comes
// through here, so no Dataset reaches vdms.Open carrying Angular.
func canonicalMetric(metric linalg.Metric, vectors, queries [][]float32) linalg.Metric {
	if metric != linalg.Angular {
		return metric
	}
	for _, v := range vectors {
		linalg.Normalize(v)
	}
	for _, q := range queries {
		linalg.Normalize(q)
	}
	return linalg.L2
}

func cloneRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = linalg.Clone(r)
	}
	return out
}

// FromLive builds an evaluation dataset from a live system's state: a
// sample of its stored vectors and the query window it just served. The
// online tuning daemon uses it to score candidate configurations against
// the workload actually hitting the engine instead of a synthetic proxy.
// Exact ground truth is computed over the sample by brute force, so
// recall is measured relative to the sampled corpus. Vectors and queries
// are referenced, not copied (callers must not mutate them afterwards),
// except under the angular metric, which normalizes copies.
func FromLive(name string, metric linalg.Metric, vectors, queries [][]float32, k int) (*Dataset, error) {
	if len(vectors) == 0 || len(queries) == 0 {
		return nil, fmt.Errorf("workload: live dataset needs vectors and queries (have %d, %d)", len(vectors), len(queries))
	}
	dim := len(vectors[0])
	for _, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("workload: ragged live vectors")
		}
	}
	for _, q := range queries {
		if len(q) != dim {
			return nil, fmt.Errorf("workload: live query dim %d, vectors have %d", len(q), dim)
		}
	}
	if k <= 0 {
		k = 10
	}
	if k > len(vectors) {
		k = len(vectors)
	}
	if metric == linalg.Angular {
		vectors, queries = cloneRows(vectors), cloneRows(queries)
	}
	d := &Dataset{
		Name:    name,
		Dim:     dim,
		Metric:  canonicalMetric(metric, vectors, queries),
		Vectors: vectors,
		Queries: queries,
		K:       k,
	}
	d.Store()
	d.computeTruth()
	return d, nil
}

// Spec parameterizes a synthetic dataset generator.
type Spec struct {
	Name string
	// N is the corpus size, NQ the query count.
	N, NQ int
	Dim   int
	K     int
	// Clusters controls how clumpy the data is (0 = isotropic noise).
	Clusters int
	// ClusterStd is the within-cluster spread relative to the
	// between-cluster spread; small values make ANN easy, large values
	// (or Clusters==0) make the corpus nearly uniform and recall hard.
	ClusterStd float64
	// Correlated, when true, introduces strong correlation between
	// adjacent dimensions (embedding-like); when false dimensions are
	// independent, which makes vector search harder (paper §V-D on
	// Keyword-match needing larger nprobe).
	Correlated bool
	Seed       int64
}

// Generate builds the dataset (vectors, queries, exact ground truth). The
// generated corpora are angular: normalized here, searched with L2
// downstream.
func Generate(s Spec) (*Dataset, error) {
	if s.N <= 0 || s.NQ <= 0 || s.Dim <= 0 {
		return nil, fmt.Errorf("workload: invalid spec %+v", s)
	}
	if s.K <= 0 {
		s.K = 10
	}
	if s.K > s.N {
		s.K = s.N
	}
	rng := rand.New(rand.NewSource(s.Seed))

	var centers [][]float32
	if s.Clusters > 0 {
		centers = make([][]float32, s.Clusters)
		for c := range centers {
			centers[c] = make([]float32, s.Dim)
			for j := range centers[c] {
				centers[c][j] = float32(rng.NormFloat64())
			}
		}
	}
	std := s.ClusterStd
	if std == 0 {
		std = 0.3
	}
	gen := func() []float32 {
		v := make([]float32, s.Dim)
		if centers != nil {
			c := centers[rng.Intn(len(centers))]
			for j := range v {
				v[j] = c[j] + float32(rng.NormFloat64()*std)
			}
		} else {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
		}
		if s.Correlated {
			// First-order smoothing correlates adjacent dimensions.
			for j := 1; j < s.Dim; j++ {
				v[j] = 0.7*v[j-1] + 0.3*v[j]
			}
		}
		return v
	}

	d := &Dataset{
		Name:    s.Name,
		Dim:     s.Dim,
		Vectors: make([][]float32, s.N),
		Queries: make([][]float32, s.NQ),
		K:       s.K,
	}
	for i := range d.Vectors {
		d.Vectors[i] = gen()
	}
	for i := range d.Queries {
		d.Queries[i] = gen()
	}
	d.Metric = canonicalMetric(linalg.Angular, d.Vectors, d.Queries)
	d.Store() // seal the arena before the dataset escapes
	d.computeTruth()
	return d, nil
}
