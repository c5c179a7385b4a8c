// Package vdms implements the vector data management system under tuning:
// a Milvus-like engine with a segmented storage layer, a growing → sealed
// (index pending) → sealed (indexed) → compacted segment lifecycle,
// per-segment ANN indexes, a bounded-consistency window, intra-query
// parallelism, and memory accounting.
//
// There is one engine, shard (shard.go): the single-lock unit holding a
// growing arena, sealed segments, tombstones, a compactor, and an
// independent snapshot+WAL pair when durable. Segments are built by
// buildSegment, shards are probed by searchMultiLocked, batches are split
// by partition — no path has its own. Collection (live.go) is a thin
// router over N shards: it assigns ids from one atomic counter, routes
// writes by a deterministic id hash, and scatter-gathers searches with a
// fixed-order merge, so work on different shards never contends. Instance
// (engine.go, Open/Evaluate) is the tuner's steady-state model over one
// read-only shard, so what the tuner scores is what is served.
//
// The engine exposes the configuration surface of the paper (index type,
// the index parameters of Table I, the system parameters), extended with
// compaction, durability (see package persist) and sharding parameters —
// one table, Knobs, declares them all — and reports deterministic
// simulated performance derived from the real work its index structures
// perform; see DESIGN.md "Substitutions".
package vdms

import (
	"encoding/json"
	"fmt"
	"slices"

	"vdtuner/internal/index"
	"vdtuner/internal/persist"
)

// Config is one complete VDMS configuration: the selected index type, its
// build/search parameters, and the system parameters. Each scalar field
// is bound to a row of Knobs, which holds its name, range and default.
type Config struct {
	// IndexType selects the ANN algorithm for sealed segments.
	IndexType index.Type
	// Build carries the index build parameters (nlist, m, nbits, M,
	// efConstruction).
	Build index.BuildParams
	// Search carries the index search parameters (nprobe, ef, reorder_k).
	Search index.SearchParams

	// SegmentMaxSize is the sealed-segment size budget in MB-equivalents
	// (Milvus segment.maxSize).
	SegmentMaxSize float64
	// SealProportion is the fraction of SegmentMaxSize at which a growing
	// segment seals (Milvus segment.sealProportion).
	SealProportion float64
	// GracefulTime is the bounded-consistency staleness tolerance in
	// milliseconds (Milvus gracefulTime). Small values force queries to
	// wait for sync.
	GracefulTime float64
	// InsertBufSize is the insert buffer size in MB-equivalents (Milvus
	// insertBufSize). Larger buffers delay flushes, enlarging the
	// unindexed tail and memory footprint.
	InsertBufSize float64
	// Parallelism is the queryNode worker count. It is a real knob, not
	// just a cost-model input: it sizes the worker pools of index builds
	// (Open, Collection sealing) and of batched search (SearchBatch).
	// Results are identical for every value — the engine's parallel phases
	// are deterministic (see package parallel) — so the tuner can explore
	// it freely without breaking reproducibility.
	Parallelism int
	// FlushInterval is the background flush cadence in seconds. It trades
	// unindexed-tail size against background build load.
	FlushInterval float64

	// CompactionTriggerRatio is the tombstone ratio (deleted rows / total
	// rows) at which the compactor rewrites a sealed segment, physically
	// dropping deleted rows and rebuilding its index. Lower values reclaim
	// memory eagerly at the cost of more rebuild work.
	CompactionTriggerRatio float64
	// CompactionMergeFanIn is the maximum number of undersized sealed
	// segments merged into one during a compaction pass.
	CompactionMergeFanIn int
	// CompactionParallelism is the compactor worker-pool size: how many
	// rewrite/merge tasks of one pass run concurrently. Like every engine
	// pool it is deterministic: any value produces bit-identical segments.
	CompactionParallelism int

	// WALFsyncPolicy selects when write-ahead-log appends of a durable
	// collection become crash-proof: 1 = never (fsync only at
	// checkpoints), 2 = batch (fsync every WALGroupCommit records),
	// 3 = always (group-committed fsync before every acknowledgement).
	// Memory-only collections ignore it. The knob trades acknowledgement
	// latency against the crash-loss window; it never affects search
	// results.
	WALFsyncPolicy int
	// WALGroupCommit is the group-commit batch size under the batch
	// policy: how many buffered records trigger one fsync.
	WALGroupCommit int

	// ShardCount is the number of independently locked shards a live
	// Collection splits into. Writes are routed by a deterministic id hash
	// and searches fan out over all shards with a fixed-order merge, so
	// results are identical for every value on layout-independent (FLAT)
	// segments and bit-identical to the pre-sharding engine at 1; higher
	// values buy parallel insert/fsync/compaction throughput at the cost
	// of more, smaller segments. It is a structural knob for durable
	// collections: a data directory serves the shard count its manifest
	// records, and changes it only through Reconfigure.
	ShardCount int

	// Concurrency is the number of in-flight search requests during
	// replay (the paper uses 10). Zero means 10. It is a workload
	// property, not a tuned parameter.
	Concurrency int
}

// KnobID names one scalar tunable parameter; it indexes Knobs. The tuner's
// search space (internal/space) uses it as its dimension index.
type KnobID int

const (
	// Index parameters (paper Table I).
	KnobNList KnobID = iota
	KnobNProbe
	KnobPQM
	KnobPQNBits
	KnobHNSWM
	KnobEfConstruction
	KnobEf
	KnobReorderK
	// System parameters (Milvus documentation).
	KnobSegmentMaxSize
	KnobSealProportion
	KnobGracefulTime
	KnobInsertBufSize
	KnobParallelism
	KnobFlushInterval
	// Engine extensions: compaction, durability, sharding.
	KnobCompactionTriggerRatio
	KnobCompactionMergeFanIn
	KnobCompactionParallelism
	KnobWALFsyncPolicy
	KnobWALGroupCommit
	KnobShardCount
	// NumKnobs is the number of scalar knobs (the index type is not one).
	NumKnobs
)

// Knob is one row of the knob table: everything the engine, the tuner and
// the serialised forms need to know about one scalar parameter.
type Knob struct {
	// Name is the Milvus-style name: the JSON key, the name in error
	// texts and reports.
	Name string
	// Min and Max bound the tuner's search space; for system knobs
	// (Owners == nil) ValidateConfig also enforces them. Index-knob ranges
	// only bound the search space: callers may build an index outside them.
	Min, Max float64
	// Default is the value of the stock configuration and of every
	// decoded configuration whose index type does not own the knob. For
	// build knobs it equals the index constructor's zero fallback.
	Default float64
	// Integer knobs are rounded when decoded from the search space.
	Integer bool
	// ZeroDefault knobs read zero as Default (they were added after
	// configurations were first recorded) and are left out of JSON when
	// zero.
	ZeroDefault bool
	// Cold knobs shape the data in memory and on disk: changing one takes
	// a migration (reconfig.go), where a hot knob takes an atomic swap of
	// the config generation.
	Cold bool
	// Owners lists the index types that tune the knob; nil means a system
	// knob, shared by all (FLAT and AUTOINDEX own only those: Table I's
	// "N/A").
	Owners []index.Type
	// field returns the address of the knob's Config field, an *int or a
	// *float64.
	field func(*Config) any
}

var (
	ivfTypes = []index.Type{index.IVFFlat, index.IVFSQ8, index.IVFPQ, index.SCANN}
	pqOnly   = []index.Type{index.IVFPQ}
	hnswOnly = []index.Type{index.HNSW}
)

// Knobs is the one declaration of the tunable parameters. DefaultConfig,
// ValidateConfig, the hot/cold split of Reconfigure, Config's JSON form
// and the tuner's search space (internal/space) are loops over it; adding
// a knob is a Config field, a KnobID and a row here. It is read when a
// configuration is made, checked, encoded or applied — never per query:
// the engine's hot paths read Config fields.
var Knobs = [NumKnobs]Knob{
	KnobNList:          {Name: "nlist", Min: 16, Max: 1024, Default: 128, Integer: true, Cold: true, Owners: ivfTypes, field: func(c *Config) any { return &c.Build.NList }},
	KnobNProbe:         {Name: "nprobe", Min: 1, Max: 256, Default: 16, Integer: true, Owners: ivfTypes, field: func(c *Config) any { return &c.Search.NProbe }},
	KnobPQM:            {Name: "m", Min: 2, Max: 16, Default: 8, Integer: true, Cold: true, Owners: pqOnly, field: func(c *Config) any { return &c.Build.M }},
	KnobPQNBits:        {Name: "nbits", Min: 4, Max: 12, Default: 8, Integer: true, Cold: true, Owners: pqOnly, field: func(c *Config) any { return &c.Build.NBits }},
	KnobHNSWM:          {Name: "M", Min: 4, Max: 64, Default: 16, Integer: true, Cold: true, Owners: hnswOnly, field: func(c *Config) any { return &c.Build.HNSWM }},
	KnobEfConstruction: {Name: "efConstruction", Min: 8, Max: 512, Default: 128, Integer: true, Cold: true, Owners: hnswOnly, field: func(c *Config) any { return &c.Build.EfConstruction }},
	KnobEf:             {Name: "ef", Min: 8, Max: 512, Default: 64, Integer: true, Owners: hnswOnly, field: func(c *Config) any { return &c.Search.Ef }},
	KnobReorderK:       {Name: "reorder_k", Min: 10, Max: 500, Default: 100, Integer: true, Owners: []index.Type{index.SCANN}, field: func(c *Config) any { return &c.Search.ReorderK }},

	KnobSegmentMaxSize: {Name: "segment_maxSize", Min: 100, Max: 2048, Default: 512, Integer: true, Cold: true, field: func(c *Config) any { return &c.SegmentMaxSize }},
	KnobSealProportion: {Name: "segment_sealProportion", Min: 0.05, Max: 1, Default: 0.25, Cold: true, field: func(c *Config) any { return &c.SealProportion }},
	KnobGracefulTime:   {Name: "gracefulTime", Min: 0, Max: 5000, Default: 1000, field: func(c *Config) any { return &c.GracefulTime }},
	KnobInsertBufSize:  {Name: "insertBufSize", Min: 64, Max: 2048, Default: 256, Integer: true, field: func(c *Config) any { return &c.InsertBufSize }},
	KnobParallelism:    {Name: "queryNode_parallelism", Min: 1, Max: 32, Default: 4, Integer: true, field: func(c *Config) any { return &c.Parallelism }},
	KnobFlushInterval:  {Name: "flushInterval", Min: 1, Max: 120, Default: 10, field: func(c *Config) any { return &c.FlushInterval }},

	KnobCompactionTriggerRatio: {Name: "compaction_triggerRatio", Min: 0.05, Max: 0.95, Default: 0.2, ZeroDefault: true, field: func(c *Config) any { return &c.CompactionTriggerRatio }},
	KnobCompactionMergeFanIn:   {Name: "compaction_mergeFanIn", Min: 2, Max: 16, Default: 4, Integer: true, ZeroDefault: true, field: func(c *Config) any { return &c.CompactionMergeFanIn }},
	KnobCompactionParallelism:  {Name: "compaction_parallelism", Min: 1, Max: 16, Default: 2, Integer: true, ZeroDefault: true, field: func(c *Config) any { return &c.CompactionParallelism }},
	KnobWALFsyncPolicy:         {Name: "wal_fsyncPolicy", Min: 1, Max: 3, Default: 2, Integer: true, ZeroDefault: true, field: func(c *Config) any { return &c.WALFsyncPolicy }},
	KnobWALGroupCommit:         {Name: "wal_groupCommit", Min: 1, Max: 1024, Default: 64, Integer: true, ZeroDefault: true, field: func(c *Config) any { return &c.WALGroupCommit }},
	KnobShardCount:             {Name: "shard_count", Min: 1, Max: 16, Default: 1, Integer: true, ZeroDefault: true, Cold: true, field: func(c *Config) any { return &c.ShardCount }},
}

// raw reads the knob's Config field as stored.
func (k *Knob) raw(c *Config) float64 {
	p := k.field(c)
	if i, ok := p.(*int); ok {
		return float64(*i)
	}
	return *p.(*float64)
}

// Get reads the knob's effective value: the Config field, or Default where
// the field is zero and the knob reads zero that way.
func (k *Knob) Get(c *Config) float64 {
	v := k.raw(c)
	if v == 0 && k.ZeroDefault {
		return k.Default
	}
	return v
}

// Set writes v to the knob's Config field, truncating for int fields.
func (k *Knob) Set(c *Config, v float64) {
	p := k.field(c)
	if i, ok := p.(*int); ok {
		*i = int(v)
		return
	}
	*p.(*float64) = v
}

// OwnedBy reports whether index type t tunes the knob; system knobs are
// owned by every type.
func (k *Knob) OwnedBy(t index.Type) bool {
	return k.Owners == nil || slices.Contains(k.Owners, t)
}

// KnobByName finds a knob by its Milvus-style name.
func KnobByName(name string) (*Knob, bool) {
	for i := range Knobs {
		if Knobs[i].Name == name {
			return &Knobs[i], true
		}
	}
	return nil, false
}

// orDefault resolves a zero-means-default knob that a hot path read
// straight from its Config field.
func orDefault[T int | float64](v T, id KnobID) T {
	if v == 0 {
		return T(Knobs[id].Default)
	}
	return v
}

// DefaultConfig is the paper's "Default" baseline: AUTOINDEX plus stock
// system parameters.
func DefaultConfig() Config {
	c := Config{IndexType: index.AutoIndex, Concurrency: 10}
	for i := range Knobs {
		if k := &Knobs[i]; k.Owners == nil {
			k.Set(&c, k.Default)
		}
	}
	return c
}

// ValidateConfig reports configuration errors: a system knob outside its
// range in Knobs. Values outside the documented ranges are errors rather
// than silently clamped: the tuner's encoder is responsible for staying in
// range, and out-of-range values here indicate a bug. It is the one range
// check shared by NewCollection, Reconfigure, the tuner, and vdmsd's
// -config validation.
func ValidateConfig(c Config) error {
	for i := range Knobs {
		k := &Knobs[i]
		if k.Owners != nil {
			continue
		}
		if v := k.Get(&c); !(v >= k.Min && v <= k.Max) { // NaN included
			return fmt.Errorf("vdms: %s %v outside [%v, %v]", k.Name, v, k.Min, k.Max)
		}
	}
	return nil
}

// Validate reports configuration errors; see ValidateConfig.
func (c *Config) Validate() error { return ValidateConfig(*c) }

// Hot and cold knobs. A live Collection can change configuration without
// downtime (Reconfigure); knobs split by what the change costs:
//
//   - hot knobs take effect by publishing a new immutable config
//     generation that shards read at operation start;
//   - cold knobs define the shape of the data on disk and in memory and
//     take effect via a background migration that rebuilds the shard set
//     and cuts over under the router lock.
//
// Which is which is the Cold column of Knobs; besides the scalar knobs the
// index type and the build seed are cold.
//
// coldEqual reports whether two configurations agree on every cold knob
// (a pure hot swap suffices when they do). Comparisons resolve
// zero-means-default knobs first.
func coldEqual(a, b Config) bool {
	for i := range Knobs {
		if k := &Knobs[i]; k.Cold && k.Get(&a) != k.Get(&b) {
			return false
		}
	}
	return a.IndexType == b.IndexType && a.Build.Seed == b.Build.Seed
}

// GraftColdKnobs returns cfg with every cold knob replaced by from's, so
// the result differs from from only in hot knobs and Reconfigure applies
// it as a pure swap — no migration, no rebuild. The online tuning daemon
// uses it to confine itself to hot knobs unless cold changes were
// explicitly allowed.
func GraftColdKnobs(cfg, from Config) Config {
	for i := range Knobs {
		if k := &Knobs[i]; k.Cold {
			k.Set(&cfg, k.raw(&from))
		}
	}
	cfg.IndexType, cfg.Build.Seed = from.IndexType, from.Build.Seed
	return cfg
}

// Config's JSON form is flat and keyed by knob name: "index_type", one key
// per row of Knobs (zero-means-default knobs left out when zero), and the
// two non-knob properties "seed" and "concurrency" when set. The server's
// "config"/"reconfigure" ops, the tuner's knowledge base, a durable data
// directory's manifest and vdmsd's -config file share it.

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	m := map[string]any{"index_type": c.IndexType.String()}
	for i := range Knobs {
		if k := &Knobs[i]; !k.ZeroDefault || k.raw(&c) != 0 {
			m[k.Name] = k.field(&c)
		}
	}
	if c.Build.Seed != 0 {
		m["seed"] = c.Build.Seed
	}
	if c.Concurrency != 0 {
		m["concurrency"] = c.Concurrency
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler. Absent knobs stay zero;
// unknown keys, a missing or unknown index type, and a fractional value
// for an int knob are errors. The retired queryNode_cacheRatio is not
// unknown: configurations written while it was a row carry it, and its
// value is ignored.
func (c *Config) UnmarshalJSON(b []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("vdms: config: %w", err)
	}
	var typ string
	*c = Config{}
	for name, raw := range m {
		var dst any
		switch name {
		case "index_type":
			dst = &typ
		case "seed":
			dst = &c.Build.Seed
		case "concurrency":
			dst = &c.Concurrency
		case "queryNode_cacheRatio":
			continue
		default:
			k, ok := KnobByName(name)
			if !ok {
				return fmt.Errorf("vdms: config has unknown knob %q", name)
			}
			dst = k.field(c)
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("vdms: config knob %q: %w", name, err)
		}
	}
	t, err := index.ParseType(typ)
	if err != nil {
		return fmt.Errorf("vdms: config: %w", err)
	}
	c.IndexType = t
	return nil
}

func (c *Config) concurrency() int {
	if c.Concurrency <= 0 {
		return 10
	}
	return c.Concurrency
}

// walPolicy returns the WAL fsync policy and group-commit batch.
func (c *Config) walPolicy() (persist.SyncPolicy, int) {
	return persist.SyncPolicy(orDefault(c.WALFsyncPolicy, KnobWALFsyncPolicy)),
		orDefault(c.WALGroupCommit, KnobWALGroupCommit)
}

func (c *Config) shardCount() int { return orDefault(c.ShardCount, KnobShardCount) }

func (c *Config) compactWorkers() int {
	return orDefault(c.CompactionParallelism, KnobCompactionParallelism)
}
