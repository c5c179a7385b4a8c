package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vdtuner/internal/linalg"
)

// The collection manifest. A sharded data directory is laid out as
//
//	dir/
//	  MANIFEST            this file: generation, shard count, dim, metric,
//	                      and the configuration the directory serves
//	  wal/                the WAL of every shard (generation 0 layout)
//	  shard-0/            snapshots of shard 0
//	  shard-1/            ...
//	  gen-1/wal/          the same, after one migration
//	  gen-1/shard-0/      ...
//
// A generation has one WAL, which every shard appends its records to, and
// a snapshot directory per shard: shards checkpoint without coordinating,
// each at the log head, and a log file goes once every shard's retained
// snapshot covers it. The manifest is the one piece of collection-level
// state: the structural parameters that decide which shard owns which id
// (and so which shard a logged insert or delete replays on), the layout
// generation that decides which layout directory is current, and the
// configuration the collection serves.
//
// Generations exist for online reconfiguration: changing a structural
// knob (shard count, index shape, segment sizing) rewrites the layout.
// The migrated layout is built in a sibling generation directory
// (gen-<G+1>/) next to the live one, and the migration commits by
// atomically renaming a new MANIFEST over the old — the same
// temp+fsync+rename discipline snapshots use — so a crash at any point
// leaves the directory recoverable as exactly the old or exactly the new
// generation, never a mix. Generation directories not named by the
// current manifest are abandoned migrations; openers remove them.
//
// Generation 0 is special-cased for compatibility: its directories live
// at the top level (the pre-reconfiguration layout), so directories
// created before manifests carried generations open unchanged.

// ManifestVersion is the current manifest schema version. Versions 1
// (pre-reconfiguration, implicitly generation 0), 2 (no recorded
// configuration) and 3 (a WAL per shard, in its shard directory) are
// still accepted on load; openers recover them and commit what they
// recovered as the next generation, at this version.
const ManifestVersion = 4

// ManifestName is the manifest's file name within a data directory.
const ManifestName = "MANIFEST"

// Manifest records a sharded data directory's structural parameters.
type Manifest struct {
	Version int           `json:"version"`
	Shards  int           `json:"shards"`
	Dim     int           `json:"dim"`
	Metric  linalg.Metric `json:"metric"`
	// Generation is the config generation the directory currently holds.
	// Generation 0 keeps its shard directories at the top level; every
	// later generation keeps them under gen-<Generation>/. It advances by
	// one per committed migration (see package vdms, Reconfigure).
	Generation uint64 `json:"generation,omitempty"`
	// Config is the configuration the directory serves, in the engine's
	// JSON form (opaque here; empty before version 3), ConfigSeq its
	// config generation (which hot swaps advance too), and ExpectedRows
	// the corpus-size hint its segment sizing derives from.
	Config       json.RawMessage `json:"config,omitempty"`
	ConfigSeq    uint64          `json:"config_seq,omitempty"`
	ExpectedRows int             `json:"expected_rows,omitempty"`
}

// GenDir returns the layout directory of generation gen within dir: dir
// itself for generation 0, gen-<gen> for later generations.
func GenDir(dir string, gen uint64) string {
	if gen == 0 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("gen-%d", gen))
}

// ShardDir returns shard i's directory, and LogDir the log's, under the
// manifest's generation within data directory dir.
func (m *Manifest) ShardDir(dir string, i int) string {
	return filepath.Join(GenDir(dir, m.Generation), fmt.Sprintf("shard-%d", i))
}

func (m *Manifest) LogDir(dir string) string {
	return filepath.Join(GenDir(dir, m.Generation), "wal")
}

// WriteManifest atomically persists m into dir: temp file, fsync, rename,
// directory fsync — the same discipline snapshots use, so a crash leaves
// either no manifest or a complete one. It is also the commit point of a
// layout migration: the rename atomically switches the directory from one
// generation to the next.
func WriteManifest(dir string, m *Manifest) error {
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, ManifestName, "manifest-*.tmp", func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// LoadManifest reads dir's manifest. It returns (nil, nil) when no
// manifest exists (a fresh or pre-sharding directory; callers decide which
// with HasLegacyLayout) and a *CorruptError when one exists but cannot be
// a valid manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, corruptf(filepath.Join(dir, ManifestName), 0, "undecodable manifest: %v", err)
	}
	// Version 1 manifests predate generations: they are generation 0 by
	// construction (shard dirs at the top level).
	if m.Version < 1 || m.Version > ManifestVersion {
		return nil, corruptf(filepath.Join(dir, ManifestName), 0, "unsupported manifest version %d", m.Version)
	}
	if m.Version == 1 && m.Generation != 0 {
		return nil, corruptf(filepath.Join(dir, ManifestName), 0, "version-1 manifest declares generation %d", m.Generation)
	}
	if m.Shards < 1 || m.Dim <= 0 {
		return nil, corruptf(filepath.Join(dir, ManifestName), 0, "manifest declares %d shards, dim %d", m.Shards, m.Dim)
	}
	return &m, nil
}

// RemoveStaleGenerations deletes generation directories other than the
// manifest's current one: the debris of a migration that crashed before
// its commit rename (or after it, before cleanup finished). Openers call
// it after loading the manifest; failures are surfaced but cost only
// disk, never durability, so callers may treat them as best-effort.
func RemoveStaleGenerations(dir string, m *Manifest) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range ents {
		name := e.Name()
		gen, err := strconv.ParseUint(strings.TrimPrefix(name, "gen-"), 10, 64)
		stale := err == nil && strings.HasPrefix(name, "gen-") && gen != m.Generation
		// Top-level shard and log dirs are generation 0's layout; once the
		// current generation has moved past 0 they are stale the same way.
		stale = stale || m.Generation != 0 && (strings.HasPrefix(name, "shard-") || name == "wal")
		if e.IsDir() && stale {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// HasLegacyLayout reports whether dir holds pre-sharding persistence state:
// snapshot or WAL files directly at the top level instead of under
// shard-<i> subdirectories. Such a directory predates the manifest and
// cannot be opened by the sharded engine; surfacing it beats silently
// starting an empty collection next to unreachable data.
func HasLegacyLayout(dir string) (bool, error) {
	snaps, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	wals, err := listSeqFiles(dir, "wal-", ".wal")
	if err != nil {
		return false, err
	}
	return len(snaps) > 0 || len(wals) > 0, nil
}
