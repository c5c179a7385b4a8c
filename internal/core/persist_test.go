package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
)

func sampleObservations() []Observation {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.SCANN
	cfg.Build.NList = 300
	cfg.Search.NProbe = 36
	cfg.Search.ReorderK = 283
	obs := []Observation{
		{
			Config: cfg, X: space.Encode(cfg), Type: index.SCANN,
			ObjA: 1234.5, ObjB: 0.93,
			Result: vdms.Result{QPS: 1234.5, Recall: 0.93, MemoryBytes: 1 << 20,
				BuildSeconds: 12, ReplaySeconds: 99},
		},
		{
			Config: vdms.DefaultConfig(), X: space.Encode(vdms.DefaultConfig()),
			Type: index.AutoIndex, ObjA: 1e-6, ObjB: 1e-6,
			Result: vdms.Result{Failed: true, FailReason: "replay exceeded 15-minute limit"},
		},
	}
	return obs
}

func TestSaveLoadRoundTrip(t *testing.T) {
	obs := sampleObservations()
	var buf bytes.Buffer
	if err := SaveObservations(&buf, obs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadObservations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("loaded %d observations, want %d", len(got), len(obs))
	}
	for i := range obs {
		if got[i].Config != obs[i].Config {
			t.Fatalf("config %d differs:\n%+v\n%+v", i, got[i].Config, obs[i].Config)
		}
		if got[i].Type != obs[i].Type || got[i].ObjA != obs[i].ObjA || got[i].ObjB != obs[i].ObjB {
			t.Fatalf("observation %d metadata differs", i)
		}
		if got[i].Result != obs[i].Result {
			t.Fatalf("result %d differs:\n%+v\n%+v", i, got[i].Result, obs[i].Result)
		}
		for d := range obs[i].X {
			if got[i].X[d] != obs[i].X[d] {
				t.Fatalf("observation %d vector dim %d differs", i, d)
			}
		}
	}
}

func TestLoadedObservationsBootstrapTuner(t *testing.T) {
	obs := sampleObservations()
	var buf bytes.Buffer
	if err := SaveObservations(&buf, obs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadObservations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tn := New(Options{Seed: 1, Bootstrap: loaded})
	if len(tn.Observations()) != len(obs) {
		t.Fatal("bootstrap from loaded KB failed")
	}
	// The tuner must be able to recommend from the warm state.
	cfg := tn.Next()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("post-bootstrap proposal invalid: %v", err)
	}
}

func TestSaveKnowledgeBaseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.json")
	tn := New(Options{Seed: 2})
	tn.Observe(vdms.DefaultConfig(), vdms.Result{QPS: 10, Recall: 0.5})
	if err := tn.SaveKnowledgeBase(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKnowledgeBase(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Result.QPS != 10 {
		t.Fatalf("loaded %+v", loaded)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadObservations(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted junk")
	}
	if _, err := LoadObservations(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("accepted unknown version")
	}
	bad := `{"version":1,"observations":[{"index_type":"NOPE","config":{"index_type":"NOPE"}}]}`
	if _, err := LoadObservations(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted unknown index type")
	}
	// JSON has no NaN or Inf; the nearest a file can get is a number
	// float64 cannot hold.
	var buf bytes.Buffer
	if err := SaveObservations(&buf, sampleObservations()[:1]); err != nil {
		t.Fatal(err)
	}
	inf := strings.Replace(buf.String(), `"x": [`, `"x": [1e999, `, 1)
	if _, err := LoadObservations(strings.NewReader(inf)); err == nil {
		t.Fatal("accepted a non-finite coordinate")
	}
}

func TestLoadReencodesMissingVector(t *testing.T) {
	// A KB without x vectors (e.g. hand-written) must re-encode from the
	// config.
	kb := `{"version":1,"observations":[{"index_type":"HNSW","config":{
		"index_type":"HNSW","nlist":128,"m":8,"nbits":8,"M":16,"efConstruction":128,
		"nprobe":16,"ef":64,"reorder_k":100,"segment_maxSize":512,
		"segment_sealProportion":0.25,"gracefulTime":1000,"insertBufSize":256,
		"queryNode_parallelism":4,"queryNode_cacheRatio":0.3,"flushInterval":10},
		"obj_a":5,"obj_b":0.5,"result":{"qps":5,"recall":0.5}}]}`
	loaded, err := LoadObservations(strings.NewReader(kb))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded[0].X) != space.Dims {
		t.Fatalf("vector not re-encoded: %d dims", len(loaded[0].X))
	}
	if loaded[0].Config.IndexType != index.HNSW {
		t.Fatalf("type = %v", loaded[0].Config.IndexType)
	}

	// A vector of the right length but outside the unit cube is not an
	// encoding of anything: it must not reach the surrogate as written.
	obs := sampleObservations()[:1]
	want := space.Encode(obs[0].Config)
	for _, coord := range []float64{1.5, -0.25, 1e300} {
		obs[0].X = append(space.Vector(nil), want...)
		obs[0].X[3] = coord
		var buf bytes.Buffer
		if err := SaveObservations(&buf, obs); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadObservations(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if loaded[0].X[d] != want[d] {
				t.Fatalf("coordinate %v survived loading: x[%d] = %v, want %v", coord, d, loaded[0].X[d], want[d])
			}
		}
	}
}
