package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/vdms"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 8
	cfg.Search.NProbe = 8
	coll, err := vdms.NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(coll, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		coll.Close()
	})
	return srv, cl
}

func vecsFor(n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, 8)
		for j := range out[i] {
			out[i][j] = float32(rng.NormFloat64())
		}
	}
	return out
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSearchOverWire(t *testing.T) {
	_, cl := startServer(t)
	vecs := vecsFor(60, 1)
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 60 {
		t.Fatalf("got %d ids", len(ids))
	}
	res, err := cl.Search(vecs[11], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != ids[11] {
		t.Fatalf("self-search returned %+v, want id %d", res, ids[11])
	}
}

func TestFlushAndStats(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Insert(vecsFor(300, 2)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 300 {
		t.Fatalf("stats rows = %d", st.Rows)
	}
	if st.Sealed < 1 || st.GrowingRows != 0 {
		t.Fatalf("flush did not seal: %+v", st)
	}
}

func TestServerErrors(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Insert(nil); err == nil {
		t.Fatal("empty insert accepted")
	}
	if _, err := cl.Search([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := cl.Insert([][]float32{{1}}); err == nil {
		t.Fatal("wrong-dim insert accepted")
	}
	// The connection must survive errors.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	srv, _ := startServer(t)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.call(&Request{Op: "bogus"})
	if err == nil {
		t.Fatalf("unknown op accepted: %+v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, seedClient := startServer(t)
	if _, err := seedClient.Insert(vecsFor(100, 3)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			q := vecsFor(1, int64(100+w))[0]
			for i := 0; i < 25; i++ {
				if _, err := cl.Search(q, 5); err != nil {
					errs <- err
					return
				}
			}
			if _, err := cl.Insert(vecsFor(10, int64(200+w))); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := seedClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 100+8*10 {
		t.Fatalf("rows = %d, want 180", st.Rows)
	}
}

func TestSearchBatchOverWire(t *testing.T) {
	_, cl := startServer(t)
	vecs := vecsFor(80, 5)
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]float32{vecs[3], vecs[17], vecs[42]}
	res, err := cl.SearchBatch(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d batches, want 3", len(res))
	}
	for bi, want := range []int64{ids[3], ids[17], ids[42]} {
		if len(res[bi]) == 0 || res[bi][0].ID != want {
			t.Fatalf("batch %d: self-search returned %+v, want id %d", bi, res[bi], want)
		}
	}
	// Single-query parity: batch slot must equal the "search" op answer.
	single, err := cl.Search(vecs[3], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(res[0]) || single[0] != res[0][0] {
		t.Fatalf("batch answer %+v != single answer %+v", res[0], single)
	}
}

// TestSearchKBoundedByRows: k arrives from the wire (a u32 in the binary
// codec) and sizes the engine's result buffers, so the engine works with
// no more than the rows it holds. k = 2^31-1 over 100 rows answers with
// all 100 and allocates on the order of the rows; unbounded, one such
// request asks for tens of gigabytes. Both codecs, both search ops.
func TestSearchKBoundedByRows(t *testing.T) {
	srv, jcl := startServer(t)
	bcl := dialBin(t, srv)
	const rows, k = 100, math.MaxInt32
	if _, err := jcl.Insert(vecsFor(rows, 61)); err != nil {
		t.Fatal(err)
	}
	qs := vecsFor(2, 62)
	type searcher interface {
		Search(q []float32, k int) ([]Neighbor, error)
		SearchBatch(queries [][]float32, k int) ([][]Neighbor, error)
	}
	for name, cl := range map[string]searcher{"json": jcl, "binary": bcl} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		one, err := cl.Search(qs[0], k)
		if err != nil {
			t.Fatalf("%s Search: %v", name, err)
		}
		batch, err := cl.SearchBatch(qs, k)
		if err != nil {
			t.Fatalf("%s SearchBatch: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		for i, res := range append(batch, one) {
			if len(res) != rows {
				t.Fatalf("%s result %d: %d neighbors, want all %d rows", name, i, len(res), rows)
			}
		}
		// Three answers of 100 neighbors, encoded and decoded in this
		// process: well under a megabyte.
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Fatalf("%s: k=%d over %d rows allocated %d bytes", name, k, rows, grown)
		}
	}
}

func TestSearchBatchWireErrors(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Insert(vecsFor(20, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SearchBatch(vecsFor(2, 7), 0); err == nil {
		t.Fatal("k=0 batch accepted")
	}
	if _, err := cl.SearchBatch([][]float32{{1, 2}}, 3); err == nil {
		t.Fatal("wrong-dim batch accepted")
	}
	// Empty batches are valid and return no lists.
	res, err := cl.SearchBatch(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d lists", len(res))
	}
	// The connection must survive errors.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after batch errors: %v", err)
	}
}

// TestConcurrentBatchClients drives batched searches, inserts, deletes,
// and flushes from many connections at once; under -race it proves the
// whole wire path down to the collection's batch fan-out is safe.
func TestConcurrentBatchClients(t *testing.T) {
	srv, seedClient := startServer(t)
	ids, err := seedClient.Insert(vecsFor(200, 8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			batch := vecsFor(8, int64(300+w))
			for i := 0; i < 20; i++ {
				switch {
				case w < 3: // batch searchers
					res, err := cl.SearchBatch(batch, 4)
					if err != nil {
						errs <- err
						return
					}
					if len(res) != len(batch) {
						errs <- fmt.Errorf("got %d lists, want %d", len(res), len(batch))
						return
					}
				case w == 3: // inserter
					if _, err := cl.Insert(vecsFor(15, int64(400+i))); err != nil {
						errs <- err
						return
					}
				case w == 4: // deleter
					if _, err := cl.Delete(ids[(2*i)%len(ids) : (2*i)%len(ids)+2]); err != nil {
						errs <- err
						return
					}
				default: // flusher
					if i%5 == 0 {
						if err := cl.Flush(); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := seedClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Rows counts live rows: the deleter removed ids[0:40], one id each.
	if st.Rows != 200+20*15-40 {
		t.Fatalf("rows = %d, want %d", st.Rows, 200+20*15-40)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	cfg := vdms.DefaultConfig()
	coll, err := vdms.NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	srv, err := New(coll, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		return // connection refused: fine
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded on closed server")
	}
}

func TestDeleteOverWire(t *testing.T) {
	_, cl := startServer(t)
	vecs := vecsFor(40, 4)
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cl.Delete(ids[:3])
	if err != nil || n != 3 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	res, err := cl.Search(vecs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == ids[0] {
			t.Fatal("deleted id returned over the wire")
		}
	}
	// Idempotent re-delete.
	n, err = cl.Delete(ids[:3])
	if err != nil || n != 0 {
		t.Fatalf("re-Delete = %d, %v", n, err)
	}
}

func TestWrongDimSearchOverWire(t *testing.T) {
	// Regression: a wrong-dimension single-query search used to panic
	// inside the distance kernel and take down the whole process. It must
	// answer with an error and keep the connection usable.
	_, cl := startServer(t)
	if _, err := cl.Insert(vecsFor(60, 9)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search([]float32{1, 2}, 3); err == nil {
		t.Fatal("wrong-dim search accepted")
	}
	if _, err := cl.Search(nil, 3); err == nil {
		t.Fatal("nil query accepted")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after bad search: %v", err)
	}
}

// TestNonFiniteVectorsOverBinary: a NaN row or query sent over the binary
// codec, which carries float32 bits as they are, is a per-request error and
// the connection stays up. Stored, the NaN row pushed the true second
// neighbour of the origin ({1,1,1,1}, id 1) out of an exact k=2 search.
func TestNonFiniteVectorsOverBinary(t *testing.T) {
	srv := startFlat(t, linalg.L2, 4)
	cl := dialBin(t, srv)
	nan := float32(math.NaN())
	for i, row := range [][]float32{{0, 0, 0, 0}, {1, 1, 1, 1}, {nan, 0, 0, 0}, {2, 2, 2, 2}} {
		if _, err := cl.Insert([][]float32{row}); (err != nil) != (i == 2) {
			t.Fatalf("insert %v: %v", row, err)
		}
	}
	res, err := cl.Search([]float32{0, 0, 0, 0}, 2)
	if err != nil || len(res) != 2 || res[0].ID != 0 || res[1].ID != 1 {
		t.Fatalf("k=2 search at the origin = %+v, %v; want ids 0 and 1", res, err)
	}
	if res, err := cl.Search([]float32{0, nan, 0, 0}, 2); err == nil {
		t.Fatalf("NaN query answered: %+v", res)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection dropped after a non-finite vector: %v", err)
	}
}

func TestDispatchRecoversPanic(t *testing.T) {
	// A panicking handler must yield an error response, not crash the
	// process. A nil collection makes every data op panic.
	s := &Server{}
	resp := s.dispatch(&Request{Op: "stats"})
	if resp == nil || resp.OK || resp.Error == "" {
		t.Fatalf("panic not converted to error response: %+v", resp)
	}
	if resp := s.dispatch(&Request{Op: "ping"}); !resp.OK {
		t.Fatalf("ping broken by recovery wrapper: %+v", resp)
	}
}

func TestCompactOverWire(t *testing.T) {
	_, cl := startServer(t)
	vecs := vecsFor(400, 10)
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Delete(ids[:200]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call(&Request{Op: "compact"}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstones != 0 {
		t.Fatalf("tombstones = %d after compact op, want 0", st.Tombstones)
	}
	if st.Rows != 200 {
		t.Fatalf("live rows = %d, want 200", st.Rows)
	}
	if st.ReclaimedRows != 200 || st.CompactionPasses == 0 {
		t.Fatalf("compaction counters not surfaced over the wire: %+v", st)
	}
	// Live data still findable, deleted ids gone.
	res, err := cl.Search(vecs[300], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].ID != ids[300] {
		t.Fatalf("post-compact search returned %+v, want top id %d", res, ids[300])
	}
}

func TestReconfigureOverWire(t *testing.T) {
	srv, cl := startServer(t)
	if _, err := cl.Insert(vecsFor(300, 9)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// Read back the active configuration; generation starts at 0.
	cfg, gen, err := cl.Config()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("fresh collection at generation %d", gen)
	}
	if cfg.IndexType != index.IVFFlat || cfg.Search.NProbe != 8 {
		t.Fatalf("config read back wrong: %+v", cfg)
	}

	// Hot swap over the wire.
	hot := *cfg
	hot.Search.NProbe = 2
	gen, err = cl.Reconfigure(hot)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("hot swap produced generation %d, want 1", gen)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ConfigGeneration != 1 || st.IndexType != index.IVFFlat || st.ShardCount != 1 || st.MigrationInProgress {
		t.Fatalf("stats after hot swap: %+v", st)
	}

	// Cold change: a reshard plus index-type migration, all over the wire.
	cold := hot
	cold.IndexType = index.Flat
	cold.Build = index.BuildParams{}
	cold.ShardCount = 3
	gen, err = cl.Reconfigure(cold)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("migration produced generation %d, want 2", gen)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ConfigGeneration != 2 || st.IndexType != index.Flat || st.ShardCount != 3 {
		t.Fatalf("stats after migration: %+v", st)
	}
	if st.Rows != 300 {
		t.Fatalf("migration lost rows: %d", st.Rows)
	}
	// The migrated engine still serves.
	res, err := cl.Search(vecsFor(1, 10)[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("post-migration search returned %d hits", len(res))
	}

	// Out-of-range configurations are refused with the shared validator.
	bad := *cfg
	bad.Parallelism = 999
	if _, err := cl.Reconfigure(bad); err == nil {
		t.Fatal("out-of-range config accepted over the wire")
	}

	// The query log window records served queries for the tuning loop.
	srv.EnableQueryLog(8)
	qs := vecsFor(12, 11)
	for _, q := range qs[:4] {
		if _, err := cl.Search(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.SearchBatch(qs[4:], 3); err != nil {
		t.Fatal(err)
	}
	got := srv.TakeQueries()
	if len(got) != 8 {
		t.Fatalf("query window holds %d queries, want capacity 8", len(got))
	}
	// Newest-8 of the 12 served: qs[4:12].
	for i, q := range got {
		want := qs[4+i]
		for j := range q {
			if q[j] != want[j] {
				t.Fatalf("query window entry %d mismatches served query", i)
			}
		}
	}
	if srv.TakeQueries() != nil {
		t.Fatal("drained window not empty")
	}
}

// TestConfigJSONRoundTrip drives "config" and "reconfigure" as a client
// without the Go types would: the reply's config object, keyed by knob
// name, is sent back verbatim and must apply as the same configuration.
func TestConfigJSONRoundTrip(t *testing.T) {
	srv, cl := startServer(t)
	// Every knob off its default.
	want := vdms.Config{IndexType: index.IVFPQ, Concurrency: 7}
	for i := range vdms.Knobs {
		k := &vdms.Knobs[i]
		k.Set(&want, k.Min+(k.Max-k.Min)/3)
		if k.Get(&want) == k.Default {
			t.Fatalf("fixture leaves %s at its default", k.Name)
		}
	}
	if _, err := cl.Reconfigure(want); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lines := bufio.NewReader(conn)
	exchange := func(req string, ok bool) map[string]json.RawMessage {
		t.Helper()
		if _, err := fmt.Fprintln(conn, req); err != nil {
			t.Fatal(err)
		}
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		var reply map[string]json.RawMessage
		if err := json.Unmarshal(line, &reply); err != nil || string(reply["ok"]) != fmt.Sprint(ok) {
			t.Fatalf("%s -> %s (%v)", req, line, err)
		}
		return reply
	}
	call := func(req string) map[string]json.RawMessage { t.Helper(); return exchange(req, true) }
	reply := call(`{"op":"config"}`)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(reply["config"], &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(vdms.Knobs)+2 || string(keys["index_type"]) != `"IVF_PQ"` || string(keys["concurrency"]) != "7" {
		t.Fatalf("config reply: %s", reply["config"])
	}
	for i := range vdms.Knobs {
		if _, ok := keys[vdms.Knobs[i].Name]; !ok {
			t.Fatalf("config reply lacks %q: %s", vdms.Knobs[i].Name, reply["config"])
		}
	}

	before, sent := string(reply["generation"]), string(reply["config"])
	reply = call(`{"op":"reconfigure","config":` + sent + `}`)
	if string(reply["generation"]) == before {
		t.Fatalf("reconfigure did not advance generation %s", before)
	}
	// The shape every config reply had while queryNode_cacheRatio was a
	// knob: the retired key rides along, is ignored, and the rest applies.
	before = string(reply["generation"])
	reply = call(`{"op":"reconfigure","config":` + `{"queryNode_cacheRatio":0.3,` + sent[1:] + `}`)
	if string(reply["generation"]) == before {
		t.Fatalf("reconfigure carrying the retired key did not advance generation %s", before)
	}

	// A configuration the decoder refuses is an answered error, and the
	// connection and the active configuration survive it.
	for _, bad := range []string{
		`{"index_type":"IVF_PQ","ShardCount":2}`,
		`{"index_type":"IVF_PQ","nlist":12.5}`,
		`{"nlist":128}`,
		`{"index_type":"IVF_PQ","queryNode_parallelism":999}`,
	} {
		exchange(`{"op":"reconfigure","config":`+bad+`}`, false)
	}
	call(`{"op":"ping"}`)
	got, _, err := cl.Config()
	if err != nil {
		t.Fatal(err)
	}
	if *got != want {
		t.Fatalf("after the JSON round trip:\n got %+v\nwant %+v", *got, want)
	}
}
