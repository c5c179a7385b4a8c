package server

import (
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/vdms"
)

// TestPersistOpAndRecovery drives the durability surface over the wire:
// insert through a client, checkpoint with the "persist" op, crash the
// collection, recover it into a fresh server, and read the data back.
func TestPersistOpAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	cfg.WALFsyncPolicy = 3
	coll, err := vdms.OpenDurable(dir, cfg, linalg.L2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(coll, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call(&Request{Op: "persist"}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LastCheckpointLSN == 0 {
		t.Fatalf("stats after persist: %+v, want a checkpoint LSN", st)
	}
	cl.Close()
	srv.Close()
	coll.Crash()

	rec, err := vdms.OpenDurable(dir, cfg, linalg.L2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	srv2, err := New(rec, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	st, err = cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != int64(len(vecs)) {
		t.Fatalf("recovered server reports %d rows, want %d", st.Rows, len(vecs))
	}
	hits, err := cl2.Search(vecs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != ids[1] || hits[0].Dist != 0 {
		t.Fatalf("recovered server lost vector: %+v", hits)
	}
}

// TestPersistOpOnMemoryCollection: the op succeeds (no-op) without a data
// directory.
func TestPersistOpOnMemoryCollection(t *testing.T) {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	coll, err := vdms.NewCollection(cfg, linalg.L2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	srv, err := New(coll, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.call(&Request{Op: "persist"}); err != nil {
		t.Fatal(err)
	}
}
