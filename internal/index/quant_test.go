package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vdtuner/internal/linalg"
)

func TestSQ8CodecRoundTripError(t *testing.T) {
	// Property: reconstruction error per dimension is bounded by one
	// quantization step.
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		dim := rng.Intn(16) + 2
		n := rng.Intn(50) + 2
		vecs := make([][]float32, n)
		for i := range vecs {
			vecs[i] = make([]float32, dim)
			for j := range vecs[i] {
				vecs[i][j] = float32(rng.NormFloat64() * 10)
			}
		}
		codec := trainSQ8(linalg.MatrixFromRows(vecs), dim, 1)
		code := make([]byte, dim)
		for _, v := range vecs {
			codec.encode(v, code)
			for j, b := range code {
				rec := codec.min[j] + float32(b)*codec.scale[j]
				if step := codec.scale[j]; math.Abs(float64(rec-v[j])) > float64(step)+1e-5 {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < 50; i++ {
		if !f() {
			t.Fatal("SQ8 reconstruction error exceeded one quantization step")
		}
	}
}

func TestSQ8DistancePreservesRanking(t *testing.T) {
	// Quantized distances must correlate with exact distances: the
	// quantized nearest neighbor should be among the exact top few.
	rng := rand.New(rand.NewSource(2))
	dim := 16
	n := 200
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = make([]float32, dim)
		for j := range vecs[i] {
			vecs[i][j] = float32(rng.NormFloat64())
		}
	}
	codec := trainSQ8(linalg.MatrixFromRows(vecs), dim, 1)
	codes := make([][]byte, n)
	for i, v := range vecs {
		codes[i] = make([]byte, dim)
		codec.encode(v, codes[i])
	}
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		type pair struct {
			i     int
			exact float32
			quant float32
		}
		ps := make([]pair, n)
		for i := range vecs {
			ps[i] = pair{i, linalg.SquaredL2(q, vecs[i]), codec.dist(linalg.L2, q, codes[i])}
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a].quant < ps[b].quant })
		bestQuant := ps[0].i
		sort.Slice(ps, func(a, b int) bool { return ps[a].exact < ps[b].exact })
		rank := -1
		for r, p := range ps {
			if p.i == bestQuant {
				rank = r
				break
			}
		}
		if rank > 5 {
			t.Fatalf("quantized nearest neighbor ranks %d exactly", rank)
		}
	}
}

func TestSQ8ConstantDimension(t *testing.T) {
	vecs := [][]float32{{1, 5}, {2, 5}, {3, 5}}
	codec := trainSQ8(linalg.MatrixFromRows(vecs), 2, 1)
	code := make([]byte, 2)
	codec.encode(vecs[0], code)
	if code[1] != 0 {
		t.Fatalf("constant dim encoded as %d", code[1])
	}
	d := codec.dist(linalg.L2, []float32{1, 5}, code)
	if d > 1e-6 {
		t.Fatalf("distance to own code in constant dim = %v", d)
	}
}

func TestHNSWLayer0Connectivity(t *testing.T) {
	// Every node must be reachable from the entry point on layer 0 —
	// otherwise some vectors are permanently unfindable.
	vecs, ids, _, _ := testData(t, 800, 1, 16, 1, 21)
	idx, err := New(HNSW, linalg.L2, 16, BuildParams{HNSWM: 8, EfConstruction: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	h := idx.(*hnsw)
	visited := make([]bool, len(vecs))
	queue := []int{h.entry}
	visited[h.entry] = true
	count := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		count++
		for _, nb := range h.links[n][0] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, int(nb))
			}
		}
	}
	if count != len(vecs) {
		t.Fatalf("layer 0 reaches %d of %d nodes", count, len(vecs))
	}
}

func TestHNSWLevelDistribution(t *testing.T) {
	// Levels follow a geometric-ish decay: level 0 must dominate.
	vecs, ids, _, _ := testData(t, 1000, 1, 8, 1, 22)
	idx, err := New(HNSW, linalg.L2, 8, BuildParams{HNSWM: 16, EfConstruction: 32, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	h := idx.(*hnsw)
	level0 := 0
	for _, l := range h.levels {
		if l == 0 {
			level0++
		}
	}
	if level0 < len(vecs)/2 {
		t.Fatalf("only %d of %d nodes at level 0", level0, len(vecs))
	}
	if h.maxLevel < 1 {
		t.Fatalf("graph never grew above level 0 (maxLevel %d)", h.maxLevel)
	}
}

func TestHNSWDegreeBounds(t *testing.T) {
	// After pruning, no node exceeds 2M links at layer 0 or M above.
	vecs, ids, _, _ := testData(t, 600, 1, 8, 1, 23)
	m := 8
	idx, err := New(HNSW, linalg.L2, 8, BuildParams{HNSWM: m, EfConstruction: 48, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	h := idx.(*hnsw)
	for node, perLayer := range h.links {
		for l, nbs := range perLayer {
			limit := m
			if l == 0 {
				// Layer 0 allows 2M, plus a small slack for
				// connectivity-repair links added after pruning.
				limit = 2*m + 4
			}
			if len(nbs) > limit {
				t.Fatalf("node %d layer %d has %d links (limit %d)", node, l, len(nbs), limit)
			}
		}
	}
}

func TestPQCodeWidth(t *testing.T) {
	// Codes must stay within 2^nbits.
	vecs, ids, _, _ := testData(t, 400, 1, 16, 1, 24)
	idx, err := New(IVFPQ, linalg.L2, 16, BuildParams{NList: 8, M: 4, NBits: 5, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	pq := pqPayload(t, idx)
	if pq.codes8 == nil || pq.codes16 != nil {
		t.Fatalf("ksubN=%d should pack 1-byte codes (codes8=%v codes16=%v)",
			pq.ksubN, pq.codes8 != nil, pq.codes16 != nil)
	}
	limit := uint16(1) << pq.nbits
	for i := range idx.(*ivf).ids {
		for s, c := range pq.codes8[i*pq.m : (i+1)*pq.m] {
			if uint16(c) >= limit {
				t.Fatalf("vector %d subspace %d code %d >= %d", i, s, c, limit)
			}
		}
	}
}

func TestTopKQuickProperty(t *testing.T) {
	// quick.Check: TopK results are always the k smallest values.
	f := func(vals []float32) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := 3
		top := linalg.NewTopK(k)
		for i, v := range clean {
			top.Push(int64(i), v)
		}
		res := top.Results()
		sorted := append([]float32(nil), clean...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, r := range res {
			if r.Dist != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPQBuildDistCompsFormula pins the codebook-training cost charged by
// pqCells.train: the full-dimension-equivalent comparisons on top of the
// shared coarse training are exactly n*ksubN (m subspace passes of n*ksubN
// comparisons, each touching subDim = dim/m of the dimensions), and
// encoding charges one code-domain pass over the corpus.
func TestPQBuildDistCompsFormula(t *testing.T) {
	vecs, ids, _, _ := testData(t, 900, 1, 16, 1, 41)
	store := linalg.MatrixFromRows(vecs)
	bp := BuildParams{NList: 16, M: 4, NBits: 6, Seed: 41}

	flat, err := New(IVFFlat, linalg.L2, 16, BuildParams{NList: bp.NList, Seed: bp.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Build(store, ids); err != nil {
		t.Fatal(err)
	}
	coarse := flat.BuildStats() // identical nlist/seed/workers → identical coarse cost

	idx, err := New(IVFPQ, linalg.L2, 16, bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(store, ids); err != nil {
		t.Fatal(err)
	}
	pq := pqPayload(t, idx)
	st := idx.BuildStats()

	n := int64(len(vecs))
	wantDist := coarse.DistComps + n*int64(pq.ksubN)
	if st.DistComps != wantDist {
		t.Errorf("Build DistComps = %d, want coarse %d + n*ksubN %d = %d",
			st.DistComps, coarse.DistComps, n*int64(pq.ksubN), wantDist)
	}
	if st.CodeComps != coarse.CodeComps+n {
		t.Errorf("Build CodeComps = %d, want %d (one encode pass)", st.CodeComps, coarse.CodeComps+n)
	}
}

// TestPQWideCodesMultiMatchesSingle drives the 2-byte code path (nbits > 8
// trains ksubN > 256 codewords, so codes cannot pack to one byte) through
// the same multi≡single contract as the narrow path, and pins the width
// choice itself.
func TestPQWideCodesMultiMatchesSingle(t *testing.T) {
	const k = 10
	sp := SearchParams{NProbe: 4}
	vecs, ids, queries, _ := testData(t, 700, 64, 16, k, 42)
	idx, err := New(IVFPQ, linalg.L2, 16, BuildParams{NList: 16, M: 4, NBits: 9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	pq := pqPayload(t, idx)
	if pq.ksubN <= 256 {
		t.Fatalf("nbits=9 trained only %d codewords; test needs ksubN > 256", pq.ksubN)
	}
	if pq.codes16 == nil || pq.codes8 != nil {
		t.Fatalf("ksubN=%d must pack 2-byte codes (codes8=%v codes16=%v)",
			pq.ksubN, pq.codes8 != nil, pq.codes16 != nil)
	}
	for _, qn := range []int{1, 7, 64} {
		qs := queries[:qn]
		var stSeq Stats
		want := make([][]linalg.Neighbor, qn)
		for i, q := range qs {
			top := linalg.NewTopK(k)
			idx.SearchInto(q, k, sp, &stSeq, top)
			want[i] = top.Results()
		}
		var stMulti Stats
		tops := make([]*linalg.TopK, qn)
		for i := range tops {
			tops[i] = linalg.NewTopK(k)
		}
		idx.SearchMultiInto(qs, k, sp, &stMulti, tops)
		if stMulti != stSeq {
			t.Errorf("qn=%d: multi stats %+v != sequential %+v", qn, stMulti, stSeq)
		}
		for i := range qs {
			if got := tops[i].Results(); !neighborsBitEqual(got, want[i]) {
				t.Errorf("qn=%d query %d: wide-code multi results diverge", qn, i)
			}
		}
	}
}
