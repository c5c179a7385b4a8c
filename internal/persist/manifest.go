package persist

import (
	"encoding/json"
	"fmt"
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
//	  shard-0/            snapshot + WAL of shard 0 (generation 0 layout)
//	  shard-1/            ...
//	  gen-1/shard-0/      snapshot + WAL of shard 0 after one migration
//	  gen-1/shard-1/      ...
//
// Each shard directory is an independent snapshot+WAL pair — shards
// checkpoint, rotate, and recover without coordinating — and the manifest
// is the one piece of collection-level state: the structural parameters
// that decide which shard owns which id, the layout generation that
// decides which layout directory is current, and the configuration the
// collection serves.
//
// Generations exist for online reconfiguration: changing a structural
// knob (shard count, index shape, segment sizing) rewrites the layout.
// The migrated layout is built in a sibling generation directory
// (gen-<G+1>/shard-<i>) next to the live one, and the migration commits
// by atomically renaming a new MANIFEST over the old — the same
// temp+fsync+rename discipline snapshots use — so a crash at any point
// leaves the directory recoverable as exactly the old or exactly the new
// generation, never a mix. Generation directories not named by the
// current manifest are abandoned migrations; openers remove them.
//
// Generation 0 is special-cased for compatibility: its shard directories
// live at the top level (the pre-reconfiguration layout), so directories
// created before manifests carried generations open unchanged.

// ManifestVersion is the current manifest schema version. Version 1
// (pre-reconfiguration, implicitly generation 0) and version 2 (no
// recorded configuration) are still accepted on load.
const ManifestVersion = 3

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

// ShardDir returns shard i's subdirectory within a generation-0 data
// directory (the pre-reconfiguration layout).
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// GenDir returns the layout directory of generation gen within dir: dir
// itself for generation 0, gen-<gen> for later generations.
func GenDir(dir string, gen uint64) string {
	if gen == 0 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("gen-%d", gen))
}

// ShardDir returns shard i's directory under the manifest's current
// generation within data directory dir.
func (m *Manifest) ShardDir(dir string, i int) string {
	return filepath.Join(GenDir(dir, m.Generation), fmt.Sprintf("shard-%d", i))
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
	tmp, err := os.CreateTemp(dir, "manifest-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
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
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, "gen-") {
			continue
		}
		gen, err := strconv.ParseUint(name[len("gen-"):], 10, 64)
		if err != nil || gen == m.Generation {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Top-level shard dirs are generation 0's layout; once the current
	// generation has moved past 0 they are stale the same way.
	if m.Generation != 0 {
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
					firstErr = err
				}
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
