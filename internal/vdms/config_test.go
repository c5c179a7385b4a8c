package vdms

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vdtuner/internal/index"
)

// TestKnobTableBindsEveryField is the one agreement test the knob table
// needs: every numeric field of Config (Build and Search included) is bound
// by exactly one row, apart from the three that are not tunable; names are
// unique; and a row's declared integrality fits the field it writes.
func TestKnobTableBindsEveryField(t *testing.T) {
	notKnobs := map[string]bool{"IndexType": true, "Build.Seed": true, "Build.Workers": true, "Concurrency": true}
	var cfg Config
	fields := map[uintptr]string{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
			case reflect.Int, reflect.Int64, reflect.Float64:
				if !notKnobs[name] {
					fields[f.Addr().Pointer()] = name
				}
			default:
				t.Fatalf("Config field %s has kind %v: neither a knob nor a struct of knobs", name, f.Kind())
			}
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")
	if len(fields) != len(Knobs) {
		t.Fatalf("Config has %d tunable fields, the table %d rows", len(fields), len(Knobs))
	}

	names := map[string]bool{}
	for i := range Knobs {
		k := &Knobs[i]
		if k.Name == "" || names[k.Name] {
			t.Fatalf("row %d: name %q empty or repeated", i, k.Name)
		}
		names[k.Name] = true
		p := reflect.ValueOf(k.field(&cfg))
		name, ok := fields[p.Pointer()]
		if !ok {
			t.Fatalf("row %s binds no tunable Config field, or one another row already bound", k.Name)
		}
		delete(fields, p.Pointer())
		if _, isInt := p.Interface().(*int); isInt && !k.Integer {
			t.Fatalf("row %s is continuous but Config.%s is an int", k.Name, name)
		}
		k.Set(&cfg, k.Default)
		if k.Get(&cfg) != k.Default {
			t.Fatalf("row %s: Set then Get gives %v, want %v", k.Name, k.Get(&cfg), k.Default)
		}
	}
}

// TestKnobByName is space.TestByName, moved with the lookup it tests.
func TestKnobByName(t *testing.T) {
	for i := range Knobs {
		if k, ok := KnobByName(Knobs[i].Name); !ok || k != &Knobs[i] {
			t.Fatalf("KnobByName(%q) does not return row %d", Knobs[i].Name, i)
		}
	}
	if k, ok := KnobByName("nprobe"); !ok || k != &Knobs[KnobNProbe] {
		t.Fatalf("KnobByName(nprobe) = %+v, %v", k, ok)
	}
	if _, ok := KnobByName("bogus"); ok {
		t.Fatal("KnobByName accepted junk")
	}
}

// TestBuildKnobDefaultsAreConstructorFallbacks: the table's default for a
// build knob is the value the index constructor substitutes for zero, so
// "unowned knobs decode to their default" and "unset build parameters"
// name the same index.
func TestBuildKnobDefaultsAreConstructorFallbacks(t *testing.T) {
	ds := testDataset(t)
	var byTable Config
	for i := range Knobs {
		if k := &Knobs[i]; k.Cold && k.Owners != nil {
			k.Set(&byTable, k.Default)
		}
	}
	if byTable.Build != (index.BuildParams{NList: 128, M: 8, NBits: 8, HNSWM: 16, EfConstruction: 128}) {
		t.Fatalf("build-knob defaults are %+v", byTable.Build)
	}
	search := index.SearchParams{NProbe: 16, Ef: 64, ReorderK: 100}
	for _, typ := range index.AllTypes() {
		var built [2]index.Index
		for i, bp := range []index.BuildParams{{}, byTable.Build} {
			bp.Seed, bp.Workers = 5, 1
			idx, err := index.New(typ, ds.Metric, ds.Dim, bp)
			if err == nil {
				err = idx.Build(ds.Store(), ds.IDs())
			}
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			built[i] = idx
		}
		if built[0].BuildStats() != built[1].BuildStats() || built[0].MemoryBytes() != built[1].MemoryBytes() {
			t.Fatalf("%v: zero build parameters and the table's defaults build different indexes", typ)
		}
		for _, q := range ds.Queries[:5] {
			a := index.Search(built[0], q, 10, search, nil)
			b := index.Search(built[1], q, 10, search, nil)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: zero build parameters and the table's defaults answer differently", typ)
			}
		}
	}
}

func TestColdSplitFollowsTheTable(t *testing.T) {
	base := DefaultConfig()
	for i := range Knobs {
		k := &Knobs[i]
		changed := base
		k.Set(&changed, k.Max)
		if got := !coldEqual(base, changed); got != k.Cold {
			t.Fatalf("changing %s: cold = %v, table says %v", k.Name, got, k.Cold)
		}
		if grafted := GraftColdKnobs(changed, base); !coldEqual(grafted, base) || (!k.Cold && grafted != changed) {
			t.Fatalf("grafting after a change of %s gave %+v", k.Name, grafted)
		}
	}
	typed, seeded := base, base
	typed.IndexType = index.HNSW
	seeded.Build.Seed = 9
	if coldEqual(base, typed) || coldEqual(base, seeded) {
		t.Fatal("index type and build seed must be cold")
	}
	if GraftColdKnobs(typed, base) != base || GraftColdKnobs(seeded, base) != base {
		t.Fatal("graft left the index type or the build seed behind")
	}
	// Zero-means-default knobs compare by their resolved value.
	unset := base
	unset.ShardCount = 0
	if !coldEqual(base, unset) {
		t.Fatal("shard_count 0 and its default 1 must compare equal")
	}
}

func TestConfigJSON(t *testing.T) {
	cfg := Config{IndexType: index.IVFPQ, Concurrency: 12}
	cfg.Build.Seed = 1 << 60
	for i := range Knobs {
		k := &Knobs[i]
		k.Set(&cfg, k.Min+(k.Max-k.Min)/4)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(Knobs)+3 || string(keys["index_type"]) != `"IVF_PQ"` {
		t.Fatalf("JSON form has %d keys: %s", len(keys), raw)
	}
	for i := range Knobs {
		if _, ok := keys[Knobs[i].Name]; !ok {
			t.Fatalf("JSON form lacks %q: %s", Knobs[i].Name, raw)
		}
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil || back != cfg {
		t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, back, cfg)
	}

	// Zero-means-default knobs, seed and concurrency are left out at zero
	// and read back as zero.
	old := Config{IndexType: index.Flat, SegmentMaxSize: 512, SealProportion: 0.25}
	raw, _ = json.Marshal(old)
	for _, absent := range []string{"shard_count", "wal_fsyncPolicy", "compaction_mergeFanIn", "seed", "concurrency"} {
		if strings.Contains(string(raw), absent) {
			t.Fatalf("%q present in %s", absent, raw)
		}
	}
	if err := json.Unmarshal(raw, &back); err != nil || back != old {
		t.Fatalf("round trip of a sparse config: %v, %+v", err, back)
	}

	for _, bad := range []string{
		`{"nlist":128}`,                         // no index type
		`{"index_type":"NOPE"}`,                 // unknown index type
		`{"index_type":"FLAT","nlists":128}`,    // unknown knob
		`{"index_type":"FLAT","nlist":12.5}`,    // fraction into an int knob
		`{"index_type":"FLAT","nlist":"many"}`,  // wrong JSON type
		`{"index_type":"FLAT","Parallelism":4}`, // the Go field name is not the key
		`["index_type"]`,
	} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
}
