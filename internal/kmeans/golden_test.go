package kmeans

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"vdtuner/internal/linalg"
)

// hashResult folds every centroid's float32 bits and the whole assignment
// into one FNV-1a value.
func hashResult(res *Result) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		f.Write(b[:])
	}
	put(uint64(res.Centroids.Rows()))
	for c := 0; c < res.Centroids.Rows(); c++ {
		for _, x := range res.Centroids.Row(c) {
			put(uint64(math.Float32bits(x)))
		}
	}
	for _, a := range res.Assign {
		put(uint64(a))
	}
	return f.Sum64()
}

// TestRunGolden pins Run's output — centroid bits, assignment and
// distortion — to the values recorded before the trainer moved
// onto the block kernels, on a packed corpus with and without SampleLimit
// and on the strided subspace view PQ training uses. Every tenth row
// repeats an earlier one, so the first-wins argmin has exact ties to break.
func TestRunGolden(t *testing.T) {
	points, _ := blobs(3000, 12, 30, 77)
	for i := 10; i < points.Rows(); i += 10 {
		points.CopyRow(i, i/2)
	}
	cases := []struct {
		name       string
		points     *linalg.Matrix
		cfg        Config
		hash       uint64
		distortion uint64
	}{
		{"full", points, Config{K: 37, Seed: 5}, 0x5ae9c7d0089413e0, 0x408a965b45820000},
		{"sampled", points, Config{K: 37, Seed: 5, SampleLimit: 1000}, 0xd099453f7ae4dc85, 0x408b0307f2ab0000},
		{"subspace", points.SubspaceView(5, 18), Config{K: 16, Seed: 5}, 0x8197f75bdb046779, 0x4077d05abc9e8000},
		{"subspace-sampled", points.SubspaceView(5, 18), Config{K: 16, Seed: 5, SampleLimit: 700}, 0x8363d9dc98ed1be7, 0x40780058a34b8000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Workers = workers
				res, err := Run(tc.points, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, d := hashResult(res), math.Float64bits(res.Distortion)
				if h != tc.hash || d != tc.distortion {
					t.Errorf("workers=%d: hash %#x distortion %#x, want %#x %#x",
						workers, h, d, tc.hash, tc.distortion)
				}
			}
		})
	}
}
