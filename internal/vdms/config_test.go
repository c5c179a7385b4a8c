package vdms

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
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

// knobsAwaitingAReferent are the rows only the tuner's model reads (Open's
// invented insert buffer and flush tail, cost.go's sync wait): the served
// engine behaves the same whatever they hold. Each leaves the list when
// ROADMAP gives it a mechanism here. The list can only shrink: a row on it
// that acts fails TestEveryKnobActsOnTheServedEngine.
var knobsAwaitingAReferent = map[KnobID]string{
	KnobGracefulTime:  "ROADMAP item 12b: a search waits for the log it must see",
	KnobInsertBufSize: "ROADMAP item 11b: the WAL-bytes checkpoint trigger",
	KnobFlushInterval: "ROADMAP item 11b: the age-based seal of the growing tail",
}

// poolKnobs size worker pools, and results are identical for every pool
// size by contract: what they move is the pool.
var poolKnobs = map[KnobID]bool{KnobParallelism: true, KnobCompactionParallelism: true}

// servedFootprint is what a client or an operator can observe of a served
// collection after servedFootprintOf's script.
type servedFootprint struct {
	Answers [][]linalg.Neighbor
	Work    index.Stats
	Stats   CollectionStats
	// Recovered and RecoveredAnswers are read after a crash and reopen.
	Recovered        CollectionStats
	RecoveredAnswers [][]linalg.Neighbor
	// Workers are the pool sizes the served paths derive: the search
	// fan-out and the compactor's.
	Workers [2]int
}

// diff names the fields in which two footprints differ.
func (a servedFootprint) diff(b servedFootprint) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// servedFootprintOf serves one fixed script on a durable collection under
// cfg. 800 rows seal into four 200-row segments at the stock seal size;
// deleting 85 % of each makes the stock trigger rewrite all four and the
// compactor then merge the 30-row survivors; a last insert is left to the
// fsync policy, and the collection crashes and recovers. Every step waits
// for the background work it starts, so the footprint is a function of cfg.
func servedFootprintOf(t *testing.T, cfg Config) servedFootprint {
	t.Helper()
	const dim, rows, k = 16, 800, 10
	vecs := randVecs(rows+10, dim, 17)
	queries := randVecs(8, dim, 18)
	dir := t.TempDir()
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, rows)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for lo := 0; lo < rows; lo += 100 {
		got, err := c.Insert(vecs[lo : lo+100])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for i, id := range ids {
		if i%20 >= 3 {
			dead = append(dead, id)
		}
	}
	if _, err := c.Delete(dead); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	var fp servedFootprint
	if fp.Answers, err = c.SearchBatch(queries, k, &fp.Work); err != nil {
		t.Fatal(err)
	}
	fp.Stats = c.Stats()
	served := c.Config()
	fp.Workers = [2]int{c.readWorkers(), served.compactWorkers()}
	if _, err := c.Insert(vecs[rows:]); err != nil {
		t.Fatal(err)
	}
	c.Crash()

	r, err := OpenDurable(dir, cfg, linalg.L2, dim, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	fp.Recovered = r.Stats()
	if fp.RecoveredAnswers, err = r.SearchBatch(queries, k, nil); err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestEveryKnobActsOnTheServedEngine holds the knob table to the engine
// that serves: for every row, a served collection with the knob at its Min
// and one with it at its Max — everything else at its default, under an
// index type that owns the knob, with the same writes — must differ in
// something a client or an operator can observe: answers or index work,
// stats or segment layout, what survives a crash, or (for the pool knobs,
// whose answers may not move) a pool size. A row with no effect fails
// unless it is on knobsAwaitingAReferent, and a row on that list fails
// once it acts.
func TestEveryKnobActsOnTheServedEngine(t *testing.T) {
	// The search fan-out is queryNode_parallelism clamped to the machine:
	// two CPUs tell its Min from its Max anywhere.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for id := range Knobs {
		k := &Knobs[id]
		t.Run(k.Name, func(t *testing.T) {
			base := DefaultConfig()
			for i := range Knobs {
				Knobs[i].Set(&base, Knobs[i].Default)
			}
			if k.Owners != nil {
				base.IndexType = k.Owners[0]
			}
			lo, hi := base, base
			k.Set(&lo, k.Min)
			k.Set(&hi, k.Max)
			moved := servedFootprintOf(t, lo).diff(servedFootprintOf(t, hi))
			if why, exempt := knobsAwaitingAReferent[KnobID(id)]; exempt {
				if len(moved) > 0 {
					t.Fatalf("%s now moves %v: take it off knobsAwaitingAReferent (%s)", k.Name, moved, why)
				}
				return
			}
			if len(moved) == 0 {
				t.Fatalf("%s at %v and at %v serve identically: give it a mechanism or take it off the table", k.Name, k.Min, k.Max)
			}
			if poolKnobs[KnobID(id)] && !reflect.DeepEqual(moved, []string{"Workers"}) {
				t.Fatalf("%s moves %v; a pool size may move only the pool", k.Name, moved)
			}
			t.Logf("%s moves %v", k.Name, moved)
		})
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

	// The retired knob's key is never written, and a config carrying it
	// (every "config" reply and knowledge base written while it was a
	// row) decodes with the key ignored.
	if _, ok := keys["queryNode_cacheRatio"]; ok {
		t.Fatalf("retired key written: %s", raw)
	}
	withRetired := strings.Replace(string(raw), "{", `{"queryNode_cacheRatio":0.3,`, 1)
	if err := json.Unmarshal([]byte(withRetired), &back); err != nil || back != cfg {
		t.Fatalf("config carrying the retired key: %v\n got %+v\nwant %+v", err, back, cfg)
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
		`{"nlist":128}`,                                     // no index type
		`{"index_type":"NOPE"}`,                             // unknown index type
		`{"index_type":"FLAT","nlists":128}`,                // unknown knob
		`{"index_type":"FLAT","nlist":12.5}`,                // fraction into an int knob
		`{"index_type":"FLAT","nlist":"many"}`,              // wrong JSON type
		`{"index_type":"FLAT","Parallelism":4}`,             // the Go field name is not the key
		`{"index_type":"FLAT","queryNode_cacheRatios":0.3}`, // unknown, however near the retired name
		`{"index_type":"FLAT","CacheRatio":0.3}`,            // the retired field's Go name
		`["index_type"]`,
	} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
}
