package space

import (
	"math/rand"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/vdms"
)

func TestDefsComplete(t *testing.T) {
	// Changing the dimension count changes what a stored vector means
	// (knowledge bases are re-encoded on load), so it is pinned here.
	if Dims != 21 || NumParams != len(vdms.Knobs) {
		t.Fatalf("Dims = %d over %d knobs, want 21 (paper §V-A's 16, less queryNode_cacheRatio, + 3 compaction + 2 durability + 1 sharding extensions)", Dims, len(vdms.Knobs))
	}
	for p, d := range vdms.Knobs {
		if d.Name == "" || d.Min >= d.Max {
			t.Fatalf("bad knob %d: %+v", p, d)
		}
		if d.Default < d.Min || d.Default > d.Max {
			t.Fatalf("default out of range: %+v", d)
		}
	}
}

func TestOwnership(t *testing.T) {
	// Table I: FLAT and AUTOINDEX have no index parameters.
	for p := 0; p < NumParams; p++ {
		d := vdms.Knobs[p]
		shared := d.Owners == nil
		if OwnedBy(Param(p), index.Flat) != shared {
			t.Fatalf("FLAT ownership of %s wrong", d.Name)
		}
		if OwnedBy(Param(p), index.AutoIndex) != shared {
			t.Fatalf("AUTOINDEX ownership of %s wrong", d.Name)
		}
	}
	if !OwnedBy(vdms.KnobNList, index.IVFPQ) || !OwnedBy(vdms.KnobPQM, index.IVFPQ) {
		t.Fatal("IVF_PQ must own nlist and m")
	}
	if OwnedBy(vdms.KnobPQM, index.IVFFlat) {
		t.Fatal("IVF_FLAT must not own m")
	}
	if !OwnedBy(vdms.KnobReorderK, index.SCANN) || OwnedBy(vdms.KnobReorderK, index.HNSW) {
		t.Fatal("reorder_k belongs to SCANN only")
	}
	if !OwnedBy(vdms.KnobSegmentMaxSize, index.HNSW) {
		t.Fatal("system parameters are shared by every type")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.HNSW
	cfg.Build.HNSWM = 32
	cfg.Build.EfConstruction = 200
	cfg.Search.Ef = 100
	cfg.SegmentMaxSize = 1024
	cfg.SealProportion = 0.8
	got := Decode(Encode(cfg))
	if got.IndexType != index.HNSW {
		t.Fatalf("round-trip type = %v", got.IndexType)
	}
	if got.Build.HNSWM != 32 || got.Build.EfConstruction != 200 || got.Search.Ef != 100 {
		t.Fatalf("round-trip HNSW params = %+v %+v", got.Build, got.Search)
	}
	if got.SegmentMaxSize != 1024 {
		t.Fatalf("round-trip maxSize = %v", got.SegmentMaxSize)
	}
	if got.SealProportion < 0.79 || got.SealProportion > 0.81 {
		t.Fatalf("round-trip sealProportion = %v", got.SealProportion)
	}
}

func TestDecodeResetsUnownedParams(t *testing.T) {
	// Vectors differing only in unowned dims decode identically.
	rng := rand.New(rand.NewSource(1))
	x := DefaultVector(index.HNSW)
	y := make(Vector, len(x))
	copy(y, x)
	y[1+int(vdms.KnobNList)] = rng.Float64() // HNSW does not own nlist
	y[1+int(vdms.KnobReorderK)] = rng.Float64()
	if Decode(x) != Decode(y) {
		t.Fatal("unowned dimensions leaked into decoded config")
	}
}

func TestDecodeAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		x := make(Vector, Dims)
		for i := range x {
			x[i] = rng.Float64()
		}
		cfg := Decode(x)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded config invalid: %v (%+v)", err, cfg)
		}
	}
}

func TestTypeCodecRoundTrip(t *testing.T) {
	for _, typ := range index.AllTypes() {
		if got := DecodeType(EncodeType(typ)); got != typ {
			t.Fatalf("type round-trip %v -> %v", typ, got)
		}
	}
	if DecodeType(-0.5) != index.AllTypes()[0] {
		t.Fatal("DecodeType below range not clamped")
	}
	last := index.AllTypes()[len(index.AllTypes())-1]
	if DecodeType(1.5) != last {
		t.Fatal("DecodeType above range not clamped")
	}
}

func TestDefaultConfigMatchesEngineDefaults(t *testing.T) {
	got := DefaultConfig(index.AutoIndex)
	want := vdms.DefaultConfig()
	if got.IndexType != want.IndexType {
		t.Fatalf("default type %v, want %v", got.IndexType, want.IndexType)
	}
	// Encoding a default and decoding it again must give the default back
	// exactly, for every system knob.
	for i := range vdms.Knobs {
		if k := &vdms.Knobs[i]; k.Owners == nil && k.Get(&got) != k.Get(&want) {
			t.Fatalf("space default of %s is %v, engine default %v", k.Name, k.Get(&got), k.Get(&want))
		}
	}
}

func TestSampleSubspaceRespectsOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	def := DefaultVector(index.SCANN)
	for trial := 0; trial < 50; trial++ {
		x := SampleSubspace(index.SCANN, rng)
		if DecodeType(x[0]) != index.SCANN {
			t.Fatal("sample changed index type")
		}
		// Unowned dims must stay at default encoding.
		for _, p := range []Param{vdms.KnobPQM, vdms.KnobPQNBits, vdms.KnobHNSWM, vdms.KnobEf, vdms.KnobEfConstruction} {
			if x[1+int(p)] != def[1+int(p)] {
				t.Fatalf("unowned param %v sampled", vdms.Knobs[p].Name)
			}
		}
	}
}

func TestPerturbSubspaceStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := SampleSubspace(index.IVFPQ, rng)
	for trial := 0; trial < 100; trial++ {
		y := PerturbSubspace(x, index.IVFPQ, 0.3, rng)
		for i, v := range y {
			if v < 0 || v > 1 {
				t.Fatalf("perturbed dim %d out of range: %v", i, v)
			}
		}
		if DecodeType(y[0]) != index.IVFPQ {
			t.Fatal("perturb changed index type")
		}
	}
}

func TestLHSAcrossTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := LHSAcrossTypes(25, rng)
	if len(vs) != 25 {
		t.Fatalf("got %d samples", len(vs))
	}
	types := map[index.Type]bool{}
	for _, v := range vs {
		if len(v) != Dims {
			t.Fatalf("sample has %d dims", len(v))
		}
		types[DecodeType(v[0])] = true
		cfg := Decode(v)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LHS sample invalid: %v", err)
		}
	}
	if len(types) < 4 {
		t.Fatalf("LHS covered only %d index types", len(types))
	}
}
