package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"vdtuner/internal/linalg"
)

// This file reads the TEXMEX vector formats (.fvecs / .ivecs) used by the
// public ANN corpora the paper evaluates (GloVe, deep-image, ... as
// packaged by vector-db-benchmark): each record is a little-endian int32
// dimension d followed by d float32 (or int32) payload values.

// ReadFvecs decodes float32 vectors from r. limit > 0 caps the number of
// vectors read; limit <= 0 reads everything.
func ReadFvecs(r io.Reader, limit int) ([][]float32, error) {
	br := bufio.NewReader(r)
	var out [][]float32
	for limit <= 0 || len(out) < limit {
		var d int32
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("workload: reading fvecs dimension: %w", err)
		}
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("workload: implausible fvecs dimension %d", d)
		}
		if len(out) > 0 && int(d) != len(out[0]) {
			return nil, fmt.Errorf("workload: inconsistent fvecs dimensions %d vs %d", d, len(out[0]))
		}
		v := make([]float32, d)
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("workload: reading fvecs payload: %w", err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty fvecs stream")
	}
	return out, nil
}

// ReadIvecs decodes int32 vectors (conventionally ground-truth neighbor
// id lists) from r, with the same framing as ReadFvecs.
func ReadIvecs(r io.Reader, limit int) ([][]int32, error) {
	br := bufio.NewReader(r)
	var out [][]int32
	for limit <= 0 || len(out) < limit {
		var d int32
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("workload: reading ivecs dimension: %w", err)
		}
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("workload: implausible ivecs dimension %d", d)
		}
		v := make([]int32, d)
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("workload: reading ivecs payload: %w", err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty ivecs stream")
	}
	return out, nil
}

// WriteFvecs encodes vectors to w in .fvecs framing.
func WriteFvecs(w io.Writer, vecs [][]float32) error {
	bw := bufio.NewWriter(w)
	for i, v := range vecs {
		if err := binary.Write(bw, binary.LittleEndian, int32(len(v))); err != nil {
			return fmt.Errorf("workload: writing fvecs record %d: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("workload: writing fvecs record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// FileSpec loads a dataset from TEXMEX files: base vectors, query
// vectors, and optionally exact ground truth; when GroundTruthPath is
// empty the truth is computed by brute force.
type FileSpec struct {
	Name      string
	BasePath  string
	QueryPath string
	// GroundTruthPath optionally points to an .ivecs file with exact
	// neighbor ids per query.
	GroundTruthPath string
	// Metric selects the distance; Angular inputs are normalized.
	Metric linalg.Metric
	// K is the ground-truth depth. Defaults to 10 (or the ground-truth
	// file's width when one is given).
	K int
	// MaxBase / MaxQueries cap how much of each file is loaded
	// (0 = everything).
	MaxBase, MaxQueries int
}

// LoadFile reads a dataset from disk in TEXMEX format.
func LoadFile(s FileSpec) (*Dataset, error) {
	bf, err := os.Open(s.BasePath)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	base, err := ReadFvecs(bf, s.MaxBase)
	if err != nil {
		return nil, fmt.Errorf("workload: base vectors: %w", err)
	}
	qf, err := os.Open(s.QueryPath)
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	queries, err := ReadFvecs(qf, s.MaxQueries)
	if err != nil {
		return nil, fmt.Errorf("workload: query vectors: %w", err)
	}
	if len(queries[0]) != len(base[0]) {
		return nil, fmt.Errorf("workload: query dim %d != base dim %d", len(queries[0]), len(base[0]))
	}

	d := &Dataset{
		Name: s.Name, Dim: len(base[0]), Metric: canonicalMetric(s.Metric, base, queries),
		Vectors: base, Queries: queries, K: s.K,
	}
	d.Store() // seal the arena before the dataset escapes
	if d.K <= 0 {
		d.K = 10
	}
	if d.K > len(base) {
		d.K = len(base)
	}

	if s.GroundTruthPath != "" {
		gf, err := os.Open(s.GroundTruthPath)
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		gt, err := ReadIvecs(gf, s.MaxQueries)
		if err != nil {
			return nil, fmt.Errorf("workload: ground truth: %w", err)
		}
		if len(gt) < len(queries) {
			return nil, fmt.Errorf("workload: ground truth has %d rows for %d queries", len(gt), len(queries))
		}
		if s.K <= 0 || s.K > len(gt[0]) {
			d.K = len(gt[0])
		}
		d.Truth = make([][]int64, len(queries))
		for i := range queries {
			row := gt[i]
			if len(row) < d.K {
				return nil, fmt.Errorf("workload: ground truth row %d has %d ids, want >= %d", i, len(row), d.K)
			}
			ids := make([]int64, d.K)
			for j := 0; j < d.K; j++ {
				ids[j] = int64(row[j])
			}
			d.Truth[i] = ids
		}
		return d, nil
	}
	d.computeTruth()
	return d, nil
}
