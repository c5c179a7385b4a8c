package crashtest

import (
	"errors"
	"math/rand"
	"testing"

	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
	"vdtuner/internal/vdms"
)

// The migration crash matrix. An online reshard (vdms.Reconfigure with a
// cold-knob change) builds the new generation's layout in a sibling
// directory and commits it with a single atomic manifest rename; a crash
// at any step must therefore recover to EXACTLY the old generation or
// EXACTLY the new one, never a mix. This test discovers the migration's
// step sequence with a recording hook, then replays the identical seeded
// workload once per step with the hook killing the migration at that step
// (modelling a process kill: no cleanup runs, memory and disk are left at
// the failure point), crashes the collection, and recovers:
//
//   - the on-disk manifest must name the old generation for every kill
//     before the "manifest" rename and the new one for kills after it;
//   - reopening with the launch configuration must succeed, serve exactly
//     the old or exactly the new configuration (Config and its config
//     generation identify which), and hold exactly the acknowledged live
//     set (FLAT searches are exact, so every surviving row is findable at
//     distance zero).
//
// Mid-migration writes are injected from the hook right before the
// cutover, so kills at and after that point also prove the delta's
// crash-safety: the writes reached the old generation's WALs through the
// normal write path, and the new generation's WALs via the synced delta
// replay, so they survive on whichever side recovery lands.
//
// A hot swap on a durable collection rewrites the manifest before it is
// published: a kill before that rename ("swap-manifest") recovers the old
// hot configuration, a kill after it ("swap-committed") the new one.
func TestMigrationCrashMatrix(t *testing.T) {
	const (
		dim    = 8
		numOps = 60
		seed   = 23
	)
	oldCfg := matrixConfig() // 1 shard
	newCfg := matrixConfig()
	newCfg.ShardCount = 4 // cold change: forces a migration
	hotCfg := matrixConfig()
	hotCfg.Parallelism = 3 // hot changes: a generation swap
	hotCfg.WALGroupCommit = 8

	// seedWorkload drives the deterministic pre-migration workload and
	// returns the live id→vector set it acknowledged.
	seedWorkload := func(t *testing.T, c *vdms.Collection) map[int64][]float32 {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		live := map[int64][]float32{}
		var ids []int64
		for i := 0; i < numOps; i++ {
			if len(ids) == 0 || rng.Float64() < 0.7 {
				n := 1 + rng.Intn(5)
				vecs := make([][]float32, n)
				for j := range vecs {
					v := make([]float32, dim)
					for d := range v {
						v[d] = float32(rng.NormFloat64())
					}
					vecs[j] = v
				}
				got, err := c.Insert(vecs)
				if err != nil {
					t.Fatal(err)
				}
				for j, id := range got {
					live[id] = vecs[j]
					ids = append(ids, id)
				}
			} else {
				n := 1 + rng.Intn(4)
				del := make([]int64, n)
				for j := range del {
					del[j] = ids[rng.Intn(len(ids))]
				}
				if _, err := c.Delete(del); err != nil {
					t.Fatal(err)
				}
				for _, id := range del {
					delete(live, id)
				}
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return live
	}

	// midWrites lands writes between the capture and the cutover — they
	// must survive a crash on either side of the commit point.
	midWrites := func(t *testing.T, c *vdms.Collection, live map[int64][]float32) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed + 1))
		vecs := make([][]float32, 6)
		for j := range vecs {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			vecs[j] = v
		}
		got, err := c.Insert(vecs)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range got {
			live[id] = vecs[j]
		}
		// Delete one pre-capture row and one just-inserted row: the delta
		// must record both kinds.
		var victim int64 = -1
		for id := range live {
			if id < got[0] {
				victim = id
				break
			}
		}
		del := []int64{got[0]}
		if victim >= 0 {
			del = append(del, victim)
		}
		if _, err := c.Delete(del); err != nil {
			t.Fatal(err)
		}
		for _, id := range del {
			delete(live, id)
		}
	}

	// Discovery run: record the migration's step names in order.
	var steps []string
	{
		dir := t.TempDir()
		c, err := vdms.OpenDurable(dir, oldCfg, linalg.L2, dim, 256)
		if err != nil {
			t.Fatal(err)
		}
		live := seedWorkload(t, c)
		c.SetReconfigureHook(func(s string) error {
			steps = append(steps, s)
			if s == "cutover" {
				midWrites(t, c, live)
			}
			return nil
		})
		gen, err := c.Reconfigure(newCfg)
		if err != nil {
			t.Fatal(err)
		}
		if gen != 1 {
			t.Fatalf("migration produced generation %d, want 1", gen)
		}
		c.Crash()
	}
	// The matrix is only meaningful if the protocol actually surfaced its
	// commit point and the per-shard persistence steps.
	want := map[string]bool{"capture": false, "build": false, "snapshot-0": false,
		"snapshot-3": false, "cutover": false, "delta": false, "sync": false,
		"manifest": false, "committed": false, "cleanup": false}
	for _, s := range steps {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Fatalf("migration never announced step %q; steps were %v", s, steps)
		}
	}

	for _, failAt := range steps {
		failAt := failAt
		t.Run("kill-at-"+failAt, func(t *testing.T) {
			dir := t.TempDir()
			c, err := vdms.OpenDurable(dir, oldCfg, linalg.L2, dim, 256)
			if err != nil {
				t.Fatal(err)
			}
			live := seedWorkload(t, c)
			kill := errors.New("injected kill")
			wrote := false
			c.SetReconfigureHook(func(s string) error {
				if s == failAt {
					return kill
				}
				if s == "cutover" {
					wrote = true
					midWrites(t, c, live)
				}
				return nil
			})
			gen, err := c.Reconfigure(newCfg)
			if !errors.Is(err, kill) {
				t.Fatalf("kill at %q: Reconfigure error = %v, want injected kill", failAt, err)
			}
			committed := failAt == "committed" || failAt == "cleanup"
			if committed && gen != 1 {
				t.Fatalf("kill at %q is post-commit; Reconfigure returned generation %d, want 1", failAt, gen)
			}
			c.Crash()

			// The manifest decides which generation a recovery sees; it must
			// name exactly one of the two, matching the commit point.
			man, err := persist.LoadManifest(dir)
			if err != nil {
				t.Fatalf("kill at %q: manifest unreadable after crash: %v", failAt, err)
			}
			if committed {
				if man.Generation != 1 || man.Shards != 4 {
					t.Fatalf("kill at %q (post-commit): manifest gen=%d shards=%d, want gen=1 shards=4", failAt, man.Generation, man.Shards)
				}
			} else {
				if man.Generation != 0 || man.Shards != 1 {
					t.Fatalf("kill at %q (pre-commit): manifest gen=%d shards=%d, want gen=0 shards=1", failAt, man.Generation, man.Shards)
				}
			}

			wantCfg, wantGen := oldCfg, uint64(0)
			if committed {
				wantCfg, wantGen = newCfg, 1
			}
			rec := recoverAt(t, dir, failAt, dim, oldCfg, wantCfg, wantGen)
			defer rec.Crash()
			if !wrote && committed {
				t.Fatalf("kill at %q is post-commit but the cutover hook never ran", failAt)
			}
			checkLive(t, rec, failAt, live)
		})
	}

	for _, failAt := range []string{"swap-manifest", "swap-committed"} {
		t.Run("kill-at-"+failAt, func(t *testing.T) {
			dir := t.TempDir()
			c, err := vdms.OpenDurable(dir, oldCfg, linalg.L2, dim, 256)
			if err != nil {
				t.Fatal(err)
			}
			live := seedWorkload(t, c)
			kill := errors.New("injected kill")
			c.SetReconfigureHook(func(s string) error {
				if s == failAt {
					return kill
				}
				return nil
			})
			if _, err := c.Reconfigure(hotCfg); !errors.Is(err, kill) {
				t.Fatalf("kill at %q: Reconfigure error = %v, want injected kill", failAt, err)
			}
			c.Crash()
			wantCfg, wantGen := oldCfg, uint64(0)
			if failAt == "swap-committed" {
				wantCfg, wantGen = hotCfg, 1
			}
			rec := recoverAt(t, dir, failAt, dim, oldCfg, wantCfg, wantGen)
			defer rec.Crash()
			checkLive(t, rec, failAt, live)
		})
	}
}

// recoverAt reopens dir with the launch configuration and checks that it
// serves exactly want at config generation gen.
func recoverAt(t *testing.T, dir, failAt string, dim int, launch, want vdms.Config, gen uint64) *vdms.Collection {
	t.Helper()
	rec, err := vdms.OpenDurable(dir, launch, linalg.L2, dim, 256)
	if err != nil {
		t.Fatalf("kill at %q: recovery failed: %v", failAt, err)
	}
	if got := rec.Config(); got != want {
		rec.Crash()
		t.Fatalf("kill at %q: recovered configuration %+v, want %+v", failAt, got, want)
	}
	if got := rec.Stats().ConfigGeneration; got != gen {
		rec.Crash()
		t.Fatalf("kill at %q: recovered config generation %d, want %d", failAt, got, gen)
	}
	return rec
}

// checkLive checks that rec holds exactly the acknowledged live set, each
// row findable at distance zero.
func checkLive(t *testing.T, rec *vdms.Collection, failAt string, live map[int64][]float32) {
	t.Helper()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Rows; got != int64(len(live)) {
		t.Fatalf("kill at %q: recovered %d rows, acknowledged live set holds %d", failAt, got, len(live))
	}
	for id, vec := range live {
		hits, err := rec.Search(vec, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ID != id || hits[0].Dist != 0 {
			t.Fatalf("kill at %q: live id %d not recovered exactly: %+v", failAt, id, hits)
		}
	}
}
