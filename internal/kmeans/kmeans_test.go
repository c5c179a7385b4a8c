package kmeans

import (
	"fmt"
	"math/rand"
	"testing"

	"vdtuner/internal/linalg"
)

// blobs generates n points around k well-separated centers.
func blobs(n, k, dim int, seed int64) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for j := range centers[c] {
			centers[c][j] = float32(rng.NormFloat64()) * 10
		}
	}
	points := make([][]float32, n)
	labels := make([]int, n)
	for i := range points {
		c := rng.Intn(k)
		labels[i] = c
		points[i] = make([]float32, dim)
		for j := range points[i] {
			points[i][j] = centers[c][j] + float32(rng.NormFloat64())*0.1
		}
	}
	return linalg.MatrixFromRows(points), labels
}

func TestRunRecoversBlobs(t *testing.T) {
	points, labels := blobs(300, 4, 8, 1)
	res, err := Run(points, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows() != 4 {
		t.Fatalf("got %d centroids, want 4", res.Centroids.Rows())
	}
	// Every pair of points with the same true label must share a cluster,
	// and different labels must differ (blobs are far apart).
	clusterOf := map[int]int{}
	for i, a := range res.Assign {
		want, seen := clusterOf[labels[i]]
		if !seen {
			clusterOf[labels[i]] = a
			continue
		}
		if a != want {
			t.Fatalf("point %d (label %d) in cluster %d, expected %d", i, labels[i], a, want)
		}
	}
	if len(clusterOf) != 4 {
		t.Fatalf("recovered %d clusters, want 4", len(clusterOf))
	}
}

func TestRunAssignmentOptimality(t *testing.T) {
	// Invariant: every point is assigned to its nearest centroid.
	points, _ := blobs(200, 5, 6, 2)
	res, err := Run(points, Config{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float32, res.Centroids.Rows())
	for i := 0; i < points.Rows(); i++ {
		linalg.DistanceBlock(linalg.L2, points.Row(i), res.Centroids.Data(), d)
		if nearest, _ := argmin(d); res.Assign[i] != nearest {
			t.Fatalf("point %d assigned to %d, nearest is %d", i, res.Assign[i], nearest)
		}
	}
}

func TestRunDistortionDecreasesWithK(t *testing.T) {
	points, _ := blobs(200, 4, 4, 3)
	var prev float64
	for i, k := range []int{1, 2, 4, 8} {
		res, err := Run(points, Config{K: k, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Distortion > prev*1.05 {
			t.Fatalf("distortion grew with k=%d: %v -> %v", k, prev, res.Distortion)
		}
		prev = res.Distortion
	}
}

func TestRunKClamped(t *testing.T) {
	points, _ := blobs(3, 1, 4, 4)
	res, err := Run(points, Config{K: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows() > 3 {
		t.Fatalf("K not clamped: %d centroids for 3 points", res.Centroids.Rows())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Fatal("expected error for empty input")
	}
	pts := linalg.MatrixFromRows([][]float32{{1, 2}})
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestRunDeterministic(t *testing.T) {
	points, _ := blobs(150, 3, 4, 5)
	a, err := Run(points, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(points, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Distortion != b.Distortion {
		t.Fatalf("non-deterministic: %v vs %v", a.Distortion, b.Distortion)
	}
	for c := 0; c < a.Centroids.Rows(); c++ {
		if linalg.SquaredL2(a.Centroids.Row(c), b.Centroids.Row(c)) != 0 {
			t.Fatalf("centroid %d differs across identical runs", c)
		}
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	// The parallel contract: any Workers value produces bit-identical
	// centroids, assignments, and distortion (chunk boundaries and
	// reduction order never depend on the worker count).
	points, _ := blobs(700, 6, 8, 10)
	ref, err := Run(points, Config{K: 6, Seed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		got, err := Run(points, Config{K: 6, Seed: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Distortion != ref.Distortion {
			t.Fatalf("workers=%d: distortion %v != sequential %v", workers, got.Distortion, ref.Distortion)
		}
		for j, x := range ref.Centroids.Data() {
			if got.Centroids.Data()[j] != x {
				t.Fatalf("workers=%d: centroid %d dim %d differs", workers, j/ref.Centroids.Dim(), j%ref.Centroids.Dim())
			}
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: point %d assigned %d, sequential %d", workers, i, got.Assign[i], ref.Assign[i])
			}
		}
	}
}

func TestRunWorkerCountInvariantWithSampling(t *testing.T) {
	// Sampling draws from the rng before clustering starts, so the
	// invariance must hold on the sampled path too.
	points, _ := blobs(900, 4, 6, 11)
	ref, err := Run(points, Config{K: 4, Seed: 11, SampleLimit: 200, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(points, Config{K: 4, Seed: 11, SampleLimit: 200, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got.Distortion != ref.Distortion {
		t.Fatalf("sampled distortion %v != sequential %v", got.Distortion, ref.Distortion)
	}
	for i := range ref.Assign {
		if got.Assign[i] != ref.Assign[i] {
			t.Fatalf("sampled assignment %d differs", i)
		}
	}
}

func TestRunSampleLimit(t *testing.T) {
	points, _ := blobs(500, 4, 4, 6)
	res, err := Run(points, Config{K: 4, Seed: 6, SampleLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != points.Rows() {
		t.Fatalf("assignments cover %d points, want %d", len(res.Assign), points.Rows())
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	rows := make([][]float32, 20)
	for i := range rows {
		rows[i] = []float32{1, 1, 1}
	}
	res, err := Run(linalg.MatrixFromRows(rows), Config{K: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distortion != 0 {
		t.Fatalf("distortion %v for identical points, want 0", res.Distortion)
	}
}

func BenchmarkRun1kx32(b *testing.B) {
	b.ReportAllocs()
	points, _ := blobs(1000, 16, 32, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(points, Config{K: 16, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansRun is the build path's micro-baseline for the IVF
// family: one coarse-quantizer training as ivfCoarse.train configures it
// (SampleLimit max(2000, 20*nlist), then every row assigned), on 100-d
// rows at the tuner's dataset size and at one sealed segment's.
func BenchmarkKMeansRun(b *testing.B) {
	for _, n := range []int{1500, 15000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			points, _ := blobs(n, 64, 100, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(points, Config{K: 128, Seed: 11, SampleLimit: 2560}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
