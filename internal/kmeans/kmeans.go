// Package kmeans implements k-means clustering with k-means++ seeding.
// It is the clustering substrate for the IVF-family indexes (IVF_FLAT,
// IVF_SQ8, IVF_PQ, SCANN) and for product-quantization codebook training.
//
// The algorithm is k-means++ seeding, one Lloyd step and a final
// assignment of every point: FAISS's Clustering with niter = 1 (DESIGN.md,
// Substitutions, has what converging was measured to buy and cost).
//
// Points are supplied as a linalg.Matrix — one flat arena, which may be a
// strided subspace view (how PQ clusters each subspace without copying the
// corpus) — and centroids live in one packed Matrix. Every distance is
// computed by linalg's kernels a chunk of points at a time: the chunk as
// the "queries" of a multi-query block scan against the whole centroid
// arena for assignment, and the chunk's rows gathered against the one
// newest centroid, as the query, for the k-means++ D^2 update. The package
// has no distance loop of its own.
//
// Clustering is parallelized over fixed-size point chunks (see the
// parallel package): assignment, centroid recomputation, and the
// k-means++ D^2 updates all reduce per-chunk partials in chunk order, so
// results are bit-identical for any Workers value. Run(cfg.Workers=1) is
// the reference sequential path.
package kmeans

import (
	"fmt"
	"math/rand"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// chunkSize is the fixed per-chunk point count of every parallel loop. It
// is a constant so that chunk boundaries — and therefore reduction order —
// never depend on the worker count.
const chunkSize = 256

// Config controls a clustering run.
type Config struct {
	// K is the number of clusters. Required, >= 1.
	K int
	// Seed makes runs deterministic.
	Seed int64
	// SampleLimit, when > 0, trains on at most this many points sampled
	// uniformly (assignments are still computed for every point).
	SampleLimit int
	// Workers is the worker-pool size for the parallel phases; <= 0 means
	// one worker per CPU. The result is identical for every value.
	Workers int
}

// Result holds the outcome of a clustering run.
type Result struct {
	// Centroids has K packed rows.
	Centroids *linalg.Matrix
	// Assign maps each input point to its centroid index.
	Assign []int
	// Distortion is the final total squared distance to assigned centroids.
	Distortion float64
}

// Run clusters the points under squared-L2 distance with k-means++
// seeding and one Lloyd step, then assigns every point. It returns an error
// when the configuration is invalid or the input is empty. When K exceeds
// the number of points, K is clamped down to the point count.
func Run(points *linalg.Matrix, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	if points == nil || points.Rows() == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	n := points.Rows()
	k := cfg.K
	if k > n {
		k = n
	}
	workers := parallel.Workers(cfg.Workers)
	rng := rand.New(rand.NewSource(cfg.Seed))

	train := points
	if cfg.SampleLimit > 0 && n > cfg.SampleLimit {
		// The sample is gathered into its own packed matrix, so training
		// reads one kind of point set.
		train = linalg.NewMatrix(points.Dim(), cfg.SampleLimit)
		for _, i := range rng.Perm(n)[:cfg.SampleLimit] {
			train.AppendRow(points.Row(i))
		}
	}

	centroids := seedPlusPlus(train, k, rng, workers)
	// One Lloyd step: assign the training points, then move every
	// centroid to its points' mean.
	assignTrain := make([]int, train.Rows())
	assignAll(train, centroids, assignTrain, workers)
	recompute(train, assignTrain, centroids, rng, workers)

	assign := make([]int, n)
	distortion := assignAll(points, centroids, assign, workers)
	return &Result{
		Centroids:  centroids,
		Assign:     assign,
		Distortion: distortion,
	}, nil
}

// forChunks runs fn over the fixed chunking of the points on up to workers
// goroutines. fn receives its chunk as a view and a private buffer of
// per*rows floats for the kernel's output.
func forChunks(workers int, points *linalg.Matrix, per int, fn func(ch, lo int, chunk *linalg.Matrix, out []float32)) {
	n := points.Rows()
	nChunks := parallel.NumChunks(n, chunkSize)
	bufs := make([][]float32, parallel.WorkerCount(workers, nChunks))
	parallel.WorkerParallel(workers, nChunks, func(worker, ch int) {
		lo, hi := parallel.Chunk(ch, n, chunkSize)
		if bufs[worker] == nil {
			bufs[worker] = make([]float32, per*chunkSize)
		}
		fn(ch, lo, points.Slice(lo, hi), bufs[worker][:per*(hi-lo)])
	})
}

// sumPartials adds the per-chunk partials in chunk order.
func sumPartials(partial []float64) float64 {
	total := 0.0
	for _, s := range partial {
		total += s
	}
	return total
}

// seedPlusPlus picks k initial centroids with the k-means++ D^2 weighting.
// The per-point distance updates run in parallel; the weighted draw itself
// stays sequential so the rng consumption order is fixed.
func seedPlusPlus(points *linalg.Matrix, k int, rng *rand.Rand, workers int) *linalg.Matrix {
	n := points.Rows()
	centroids := linalg.NewMatrix(points.Dim(), k)
	centroids.AppendRow(points.Row(rng.Intn(n)))

	// dists[i] is the squared distance from point i to its nearest chosen
	// centroid, updated incrementally as centroids are added. The running
	// total is rebuilt from per-chunk partials in chunk order each round,
	// so it is worker-count-invariant.
	dists := make([]float64, n)
	partial := make([]float64, parallel.NumChunks(n, chunkSize))
	chunkRows := make([]int32, chunkSize) // a chunk view's row numbers
	for i := range chunkRows {
		chunkRows[i] = int32(i)
	}
	// update folds the newest centroid into dists; on the first one there
	// is nothing to take the minimum with. The centroid is the query and
	// the chunk's rows, packed or strided, are gathered against it: one
	// call per chunk.
	update := func() float64 {
		first := centroids.Rows() == 1
		c := centroids.Row(centroids.Rows() - 1)
		forChunks(workers, points, 1, func(ch, lo int, chunk *linalg.Matrix, out []float32) {
			linalg.DistanceRows(linalg.L2, c, chunk, chunkRows[:chunk.Rows()], out)
			s := 0.0
			for i, d32 := range out {
				if d := float64(d32); first || d < dists[lo+i] {
					dists[lo+i] = d
				}
				s += dists[lo+i]
			}
			partial[ch] = s
		})
		return sumPartials(partial)
	}
	total := update()
	for centroids.Rows() < k {
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			chosen = n - 1
			for i, d := range dists {
				acc += d
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		centroids.AppendRow(points.Row(chosen))
		total = update()
	}
	return centroids
}

// argmin returns the position and value of the smallest distance; the
// first of equals wins.
func argmin(d []float32) (int, float32) {
	best, bestD := 0, d[0]
	for c := 1; c < len(d); c++ {
		if d[c] < bestD {
			best, bestD = c, d[c]
		}
	}
	return best, bestD
}

// assignAll assigns every point to its nearest centroid, filling assign,
// and returns the total distortion. Points are processed in parallel
// chunks, each scored against the whole centroid arena in one kernel
// call; the distortion reduces per-chunk partial sums in chunk order.
func assignAll(points, centroids *linalg.Matrix, assign []int, workers int) float64 {
	k := centroids.Rows()
	partial := make([]float64, parallel.NumChunks(points.Rows(), chunkSize))
	forChunks(workers, points, k, func(ch, lo int, chunk *linalg.Matrix, out []float32) {
		linalg.SquaredL2MultiBlock(chunk, centroids.Data(), out)
		s := 0.0
		for i := 0; i < chunk.Rows(); i++ {
			best, bestD := argmin(out[i*k : (i+1)*k])
			assign[lo+i] = best
			s += float64(bestD)
		}
		partial[ch] = s
	})
	return sumPartials(partial)
}

// recompute replaces each centroid with the mean of its assigned points.
// Each chunk accumulates private per-centroid sums and counts; the merge
// walks chunks in order, so the resulting means are worker-count-invariant.
// Empty clusters are re-seeded from a random point to keep K stable.
func recompute(points *linalg.Matrix, assign []int, centroids *linalg.Matrix, rng *rand.Rand, workers int) {
	n := points.Rows()
	dim := points.Dim()
	k := centroids.Rows()
	nChunks := parallel.NumChunks(n, chunkSize)
	sums := make([][]float32, nChunks)
	chunkCounts := make([][]int, nChunks)
	parallel.ForRanges(workers, n, chunkSize, func(ch, lo, hi int) {
		sum := make([]float32, k*dim)
		cnt := make([]int, k)
		for i := lo; i < hi; i++ {
			c := assign[i]
			cnt[c]++
			linalg.AddInto(sum[c*dim:(c+1)*dim], points.Row(i))
		}
		sums[ch] = sum
		chunkCounts[ch] = cnt
	})
	counts := make([]int, k)
	cents := centroids.Data()
	for j := range cents {
		cents[j] = 0
	}
	for ch := 0; ch < nChunks; ch++ {
		for c := 0; c < k; c++ {
			counts[c] += chunkCounts[ch][c]
		}
		linalg.AddInto(cents, sums[ch])
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			copy(centroids.Row(c), points.Row(rng.Intn(n)))
			continue
		}
		linalg.Scale(centroids.Row(c), 1/float32(counts[c]))
	}
}
