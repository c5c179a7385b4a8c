// Package index implements the approximate-nearest-neighbor index types the
// tuner chooses between, mirroring Milvus' supported indexes (paper Table I):
//
//	FLAT       exhaustive scan                        (no parameters)
//	IVF_FLAT   inverted file over k-means cells       (nlist; nprobe)
//	IVF_SQ8    IVF with 8-bit scalar quantization     (nlist; nprobe)
//	IVF_PQ     IVF with product quantization          (nlist, m, nbits; nprobe)
//	HNSW       hierarchical navigable small world     (M, efConstruction; ef)
//	SCANN      quantized IVF with exact re-ranking    (nlist; nprobe, reorder_k)
//	AUTOINDEX  HNSW at a fixed default configuration   (no parameters)
//
// Every index counts the work it performs (full-precision distance
// computations, quantized-code computations, PQ table lookups) in a Stats
// value. The vdms engine converts those counts into a deterministic
// simulated latency, which is what makes tuning runs reproducible; see
// DESIGN.md ("Substitutions").
//
// Angular metrics are handled upstream: the engine normalizes vectors and
// builds indexes with the L2 metric, which ranks identically on unit
// vectors. Indexes therefore support L2 and InnerProduct.
//
// # Concurrency model
//
// Build parallelizes its training and encoding phases over
// BuildParams.Workers goroutines. It is deterministic: parallel work is
// chunked independently of the worker count and per-chunk results
// (including Stats) are reduced in chunk order, so workers=1 and
// workers=N produce identical indexes and identical accounting — see the
// parallel package. A built index is immutable; its search methods are
// safe for arbitrary concurrent use and run on the caller's goroutine
// (fanning a batch over workers is the engine's job: the vdms collection
// spreads a shard × query-tile grid over its pool). Build itself is not
// reentrant (it may be called once, by one goroutine).
//
// # One scan body per implementation, one table row per type
//
// The seven types are seven rows of the types table below over three
// implementations — flat, ivf and hnsw — each with exactly one function
// that walks its arena, posting lists or graph; every other entry point
// wraps it. FLAT and IVF scan in SearchMultiInto — a tile of queries
// shares each cache-resident row tile — and their SearchInto is that body
// at Q=1; HNSW traverses the graph per query, and its SearchMultiInto is
// the loop over that. A type is a table row: what differs between IVF
// types lives in the row's cell payload (raw rows, SQ8 codes, PQ codes) or
// its replay (SCANN re-ranks), what differs between HNSW and AUTOINDEX in
// the row's pinned parameters, never in a branch on Type. The package
// helper Search is SearchInto into a fresh collector. See DESIGN.md ("One
// scan body").
//
// # Memory layout and the query path
//
// Vectors live in flat arenas (linalg.Matrix): one []float32 with
// stride=dim, scanned by the blocked kernels in linalg. The IVF family
// additionally groups rows cell-major, so each posting list is one
// contiguous row range. All transient query state (visited sets, beams,
// top-k heaps, ADC tables, probe orders) comes from a pooled searchScratch
// (see scratch.go): steady-state SearchInto and SearchMultiInto perform
// zero heap allocations, which the alloc-gate tests in alloc_test.go
// enforce.
package index

import (
	"fmt"

	"vdtuner/internal/linalg"
)

// Type enumerates the supported index types.
type Type int

const (
	Flat Type = iota
	IVFFlat
	IVFSQ8
	IVFPQ
	HNSW
	SCANN
	AutoIndex
	numTypes
)

// Fixed AUTOINDEX configuration, deliberately not exposed for tuning.
const (
	autoM      = 16
	autoEfCons = 128
	autoEf     = 64
)

// types is the one declaration of the index types: a row per Type, its
// Milvus-style name and its constructor. New, String, ParseType and
// AllTypes are lookups or loops over it, and nothing below it branches on
// Type (package comment, "one table row per type").
var types = [numTypes]struct {
	name string
	new  func(m linalg.Metric, dim int, p BuildParams) (Index, error)
}{
	Flat: {"FLAT", func(m linalg.Metric, dim int, _ BuildParams) (Index, error) {
		return newFlat(m, dim), nil
	}},
	IVFFlat: {"IVF_FLAT", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		return newIVF(m, dim, p, &rawCells{metric: m}, replayRegions)
	}},
	IVFSQ8: {"IVF_SQ8", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		return newIVF(m, dim, p, newSQ8Cells(m, p.Workers), replayRegions)
	}},
	IVFPQ: {"IVF_PQ", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		return newIVF(m, dim, p, newPQCells(m, dim, p), replayRegions)
	}},
	HNSW: {"HNSW", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		return newHNSW(m, dim, p, 0)
	}},
	SCANN: {"SCANN", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		cells := newRerankCells(m, p.Workers)
		return newIVF(m, dim, p, cells, cells.replay)
	}},
	// AUTOINDEX mirrors Milvus': a fixed, reasonable default with no
	// user-tunable parameters — an HNSW graph with stock settings and a
	// pinned beam width, ignoring the build and search parameters.
	AutoIndex: {"AUTOINDEX", func(m linalg.Metric, dim int, p BuildParams) (Index, error) {
		pinned := BuildParams{HNSWM: autoM, EfConstruction: autoEfCons, Seed: p.Seed, Workers: p.Workers}
		return newHNSW(m, dim, pinned, autoEf)
	}},
}

// AllTypes lists every selectable index type in a stable order.
func AllTypes() []Type {
	all := make([]Type, numTypes)
	for t := range all {
		all[t] = Type(t)
	}
	return all
}

// String returns the Milvus-style name of the index type.
func (t Type) String() string {
	if t < 0 || t >= numTypes {
		return fmt.Sprintf("Type(%d)", int(t))
	}
	return types[t].name
}

// ParseType maps a Milvus-style name back to a Type.
func ParseType(s string) (Type, error) {
	for t, row := range types {
		if row.name == s {
			return Type(t), nil
		}
	}
	return 0, fmt.Errorf("index: unknown type %q", s)
}

// BuildParams carries every build-time parameter of every index type; each
// implementation reads only the fields it owns (paper Table I). Zero fields
// fall back to per-type defaults.
type BuildParams struct {
	// NList is the number of IVF cells (IVF_FLAT, IVF_SQ8, IVF_PQ, SCANN).
	NList int
	// M is the number of PQ subquantizers (IVF_PQ). It must divide the
	// dimension; the constructor rounds it down to the nearest divisor.
	M int
	// NBits is the PQ code width in bits (IVF_PQ), 4..12.
	NBits int
	// HNSWM is the HNSW graph degree (paper parameter "M"; renamed here to
	// avoid colliding with the PQ field).
	HNSWM int
	// EfConstruction is the HNSW build-time beam width.
	EfConstruction int
	// Seed makes training deterministic.
	Seed int64
	// Workers is the build worker-pool size; <= 0 means one worker per
	// CPU. Builds are deterministic for any value: parallel phases chunk
	// work independently of the worker count and reduce in chunk order,
	// so workers=1 and workers=N produce identical structures and Stats.
	Workers int
}

// SearchParams carries every query-time parameter of every index type.
type SearchParams struct {
	// NProbe is the number of IVF cells scanned (IVF family, SCANN).
	NProbe int
	// Ef is the HNSW query-time beam width.
	Ef int
	// ReorderK is the number of quantized candidates re-ranked exactly
	// (SCANN).
	ReorderK int
}

// Stats counts the work performed by a build or a search. The engine turns
// these counts into simulated time; per-unit costs live in the vdms package.
type Stats struct {
	// DistComps counts full-precision, full-dimension distance computations.
	DistComps int64
	// CodeComps counts quantized-domain distance computations (cheaper:
	// byte-wide memory traffic).
	CodeComps int64
	// Lookups counts PQ ADC table lookups (one per subquantizer per
	// candidate).
	Lookups int64
}

// times returns s scaled by n: the work of n units of s.
func (s Stats) times(n int64) Stats {
	return Stats{DistComps: s.DistComps * n, CodeComps: s.CodeComps * n, Lookups: s.Lookups * n}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.DistComps += o.DistComps
	s.CodeComps += o.CodeComps
	s.Lookups += o.Lookups
}

// Index is a built ANN structure over one immutable set of vectors
// (one sealed segment in the engine).
type Index interface {
	// Build trains and populates the index from a flat vector arena.
	// ids[i] labels store.Row(i); the lengths must match and the store
	// must be packed (stride == dim; Slice views qualify, SubspaceView
	// views do not). The index adopts (and may retain) the store, which
	// must not be mutated afterwards. Build may be called once.
	Build(store *linalg.Matrix, ids []int64) error
	// RawRows returns the built index's full-precision rows and the ids in
	// its row order (ids[g] labels arena row g), or (nil, nil) when its
	// payload is lossy (IVF_SQ8 and IVF_PQ keep codes) or it is unbuilt.
	// FLAT, HNSW and AUTOINDEX return the arena Build adopted, in the
	// caller's row order; IVF_FLAT and SCANN their cell-major copy. The
	// arena is immutable. The engine reads a sealed segment's rows back
	// through it instead of keeping a second copy.
	RawRows() (*linalg.Matrix, []int64)
	// StoreAdopted reports whether the built index holds every row at full
	// precision (RawRows is non-nil), so the rows' bytes are inside
	// MemoryBytes and a caller that keeps no other copy counts them once.
	StoreAdopted() bool
	// SearchInto offers q's candidates to the caller-owned collector,
	// accumulating the work performed into st (which may be nil):
	// approximate indexes offer their k best, exhaustive ones may offer
	// every stored row. For a collector of capacity >= k the surviving set
	// is the k nearest the index can find among the ids the collector does
	// not exclude (linalg.TopK.Exclude), with first-offered-wins tie
	// handling: the index's private collectors exclude the same ids, and
	// the stages that rank before them (HNSW's beam, SCANN's stage 1) are
	// floored at k plus the excluded count. The call performs no heap
	// allocation at steady state. It is exactly SearchMultiInto over the
	// one-query tile.
	SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK)
	// SearchMultiInto answers queries[i] into collector tops[i]. For
	// every i the offered candidate sequence — and therefore the
	// surviving set, tie handling included — does not depend on which
	// other queries share the call, and st accumulates exactly the sum of
	// the per-query work. Arena-scanning indexes (FLAT, the IVF family's
	// posting lists and coarse quantizer) share one streaming pass over
	// each cache-resident row tile across the whole query tile (the
	// multi-query blocked kernels in linalg); graph traversal probes per
	// query. The engine's scatter-gather path merges per-segment and
	// per-shard probes through the collectors, without per-probe slices.
	SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK)
	// MemoryBytes reports the resident size of the built structure.
	MemoryBytes() int64
	// BuildStats reports the work performed by Build.
	BuildStats() Stats
}

// New constructs an unbuilt index of the given type for vectors of the
// given dimension under metric m.
func New(t Type, m linalg.Metric, dim int, p BuildParams) (Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("index: dimension must be positive, got %d", dim)
	}
	if t < 0 || t >= numTypes {
		return nil, fmt.Errorf("index: unknown type %v", t)
	}
	return types[t].new(m, dim, p)
}

// Search returns up to k nearest neighbors of q in ascending distance,
// accumulating the work performed into st (which may be nil): SearchInto
// into a fresh collector, for callers that want a slice.
func Search(x Index, q []float32, k int, p SearchParams, st *Stats) []linalg.Neighbor {
	if k < 1 {
		return nil
	}
	top := linalg.NewTopK(k)
	x.SearchInto(q, k, p, st, top)
	return top.Results()
}

// accumulate adds o into st when st is non-nil.
func accumulate(st *Stats, o Stats) {
	if st != nil {
		st.Add(o)
	}
}

const float32Bytes = 4
