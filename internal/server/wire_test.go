package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
	"vdtuner/internal/vdms"
)

// startServerOpts is startServer with explicit access-layer limits.
func startServerOpts(t *testing.T, opts Options) *Server {
	t.Helper()
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 8
	cfg.Search.NProbe = 8
	coll, err := vdms.NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(coll, "127.0.0.1:0", opts)
	if err != nil {
		coll.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		coll.Close()
	})
	return srv
}

// startFlat serves an empty FLAT collection of the given metric and
// dimension, so a test can choose the exact distances its searches
// return.
func startFlat(t *testing.T, metric linalg.Metric, dim int) *Server {
	t.Helper()
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	coll, err := vdms.NewCollection(cfg, metric, dim, 1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(coll, "127.0.0.1:0")
	if err != nil {
		coll.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		coll.Close()
	})
	return srv
}

func dialJSON(t *testing.T, srv *Server) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func dialBin(t *testing.T, srv *Server) *BinClient {
	t.Helper()
	cl, err := DialBinary(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// assertServerAlive proves the server still accepts and serves fresh
// connections on both protocols — the invariant every torture case must
// preserve.
func assertServerAlive(t *testing.T, srv *Server) {
	t.Helper()
	jcl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("server dead to JSON clients: %v", err)
	}
	defer jcl.Close()
	if err := jcl.Ping(); err != nil {
		t.Fatalf("server dead to JSON clients: %v", err)
	}
	bcl, err := DialBinary(srv.Addr())
	if err != nil {
		t.Fatalf("server dead to binary clients: %v", err)
	}
	defer bcl.Close()
	if err := bcl.Ping(); err != nil {
		t.Fatalf("server dead to binary clients: %v", err)
	}
}

// awaitClosed asserts the server drops the raw connection (EOF or reset)
// rather than hanging.
func awaitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			if err == io.EOF || strings.Contains(err.Error(), "reset") {
				return
			}
			t.Fatalf("connection not dropped cleanly: %v", err)
		}
	}
}

func TestBinaryClientHotOps(t *testing.T) {
	srv := startServerOpts(t, Options{})
	cl := dialBin(t, srv)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	vecs := vecsFor(80, 21)
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 80 {
		t.Fatalf("got %d ids", len(ids))
	}
	res, err := cl.Search(vecs[7], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != ids[7] {
		t.Fatalf("self-search returned %+v, want id %d", res, ids[7])
	}
	batches, err := cl.SearchBatch([][]float32{vecs[3], vecs[40]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0][0].ID != ids[3] || batches[1][0].ID != ids[40] {
		t.Fatalf("batch self-search returned %+v", batches)
	}
	n, err := cl.Delete(ids[:5])
	if err != nil || n != 5 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	// Errors answer the request and keep the pipelined connection usable.
	if _, err := cl.Search([]float32{1, 2}, 3); err == nil {
		t.Fatal("wrong-dim binary search accepted")
	}
	if _, err := cl.Insert(nil); err == nil {
		t.Fatal("empty binary insert accepted")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after binary errors: %v", err)
	}
}

// TestBinaryJSONParity proves both protocols answer identically from the
// same server state — bit-identical neighbor lists, not merely equal
// recall.
func TestBinaryJSONParity(t *testing.T) {
	srv, jcl := startServer(t)
	bcl := dialBin(t, srv)
	vecs := vecsFor(120, 22)
	ids, err := jcl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := jcl.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := vecsFor(16, 23)
	jb, err := jcl.SearchBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bcl.SearchBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(jb) != len(bb) {
		t.Fatalf("batch counts differ: %d vs %d", len(jb), len(bb))
	}
	for i := range jb {
		if len(jb[i]) != len(bb[i]) {
			t.Fatalf("query %d: %d vs %d hits", i, len(jb[i]), len(bb[i]))
		}
		for j := range jb[i] {
			if jb[i][j] != bb[i][j] {
				t.Fatalf("query %d hit %d: JSON %+v != binary %+v", i, j, jb[i][j], bb[i][j])
			}
		}
	}
	jres, err := jcl.Search(vecs[11], 3)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := bcl.Search(vecs[11], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jres) != len(bres) || jres[0] != bres[0] {
		t.Fatalf("single-query parity broken: %+v vs %+v", jres, bres)
	}
	_ = ids

	// The distances where JSON's float format switches ('e' below 1e-6
	// and from 1e21 up), −0 and subnormals: with 1-d rows under inner
	// product and the query [1], each distance is its row negated (the
	// zero row scores −0).
	srv = startFlat(t, linalg.InnerProduct, 1)
	jcl, bcl = dialJSON(t, srv), dialBin(t, srv)
	edges := []float32{1e-6, 9.9e-7, 1e21, 9.99e20, 0, math.Float32frombits(1), math.Float32frombits(0x007fffff), -1e-7}
	rows := make([][]float32, len(edges))
	for i, d := range edges {
		rows[i] = []float32{-d}
	}
	if _, err := jcl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	q := []float32{1}
	jres, err = jcl.Search(q, len(edges))
	if err != nil {
		t.Fatal(err)
	}
	jb, err = jcl.SearchBatch([][]float32{q}, len(edges))
	if err != nil {
		t.Fatal(err)
	}
	bres, err = bcl.Search(q, len(edges))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]bool{}
	for _, row := range rows {
		want[math.Float32bits(linalg.Distance(linalg.InnerProduct, q, row))] = true
	}
	for _, got := range [][]Neighbor{jres, jb[0]} {
		if len(got) != len(edges) || len(bres) != len(edges) {
			t.Fatalf("JSON answered %d hits, binary %d, want %d", len(got), len(bres), len(edges))
		}
		for i := range got {
			jn, bn := got[i], bres[i]
			if jn.ID != bn.ID || math.Float32bits(jn.Dist) != math.Float32bits(bn.Dist) || !want[math.Float32bits(bn.Dist)] {
				t.Fatalf("hit %d: JSON %+v (bits %08x), binary %+v (bits %08x)", i, jn, math.Float32bits(jn.Dist), bn, math.Float32bits(bn.Dist))
			}
		}
	}
}

// TestNonFiniteResultAnsweredOverJSON: a result JSON cannot spell — here
// a squared L2 distance between finite rows that overflows to +Inf — is
// answered with an error naming the op and the value, and the same
// connection goes on serving. The binary codec carries the +Inf as is.
func TestNonFiniteResultAnsweredOverJSON(t *testing.T) {
	srv := startFlat(t, linalg.L2, 4)
	jcl := dialJSON(t, srv)
	if _, err := jcl.Insert([][]float32{{3e19, 3e19, 3e19, 3e19}}); err != nil {
		t.Fatal(err)
	}
	q := []float32{-3e19, -3e19, -3e19, -3e19}
	if _, err := jcl.Search(q, 1); err == nil || !strings.HasPrefix(err.Error(), "search:") || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("JSON search of an overflowing distance: %v", err)
	}
	if _, err := jcl.SearchBatch([][]float32{q}, 1); err == nil || !strings.HasPrefix(err.Error(), "searchBatch:") || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("JSON searchBatch of an overflowing distance: %v", err)
	}
	if err := jcl.Ping(); err != nil {
		t.Fatalf("connection dropped after an unencodable result: %v", err)
	}
	res, err := dialBin(t, srv).Search(q, 1)
	if err != nil || len(res) != 1 || !math.IsInf(float64(res[0].Dist), 1) {
		t.Fatalf("binary search = %+v, %v; want one hit at +Inf", res, err)
	}
}

// TestZeroValuesSurviveBothCodecs is the regression test for the
// omitempty bug: a legitimate generation 0 or deleted-count 0 must be
// spelled out on the JSON wire, and must round-trip through the binary
// codec's fixed-width fields.
func TestZeroValuesSurviveBothCodecs(t *testing.T) {
	// JSON: the zero fields must appear in the encoded bytes.
	raw, err := json.Marshal(&Response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"deleted":0`, `"generation":0`} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("JSON response %s omits %s", raw, want)
		}
	}
	var back Response
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Deleted != 0 || back.Generation != 0 {
		t.Fatalf("zero values corrupted through JSON: %+v", back)
	}

	// Binary: a Deleted of 0 is a real u32 on the wire.
	body := encodeBinResponse(nil, 42, binDelete, &Response{OK: true, Deleted: 0})
	id, resp, err := decodeBinResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || !resp.OK || resp.Deleted != 0 {
		t.Fatalf("zero Deleted corrupted through binary codec: id=%d %+v", id, resp)
	}

	// End to end: deleting already-deleted ids answers 0 on both
	// protocols.
	srv, jcl := startServer(t)
	bcl := dialBin(t, srv)
	ids, err := jcl.Insert(vecsFor(10, 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jcl.Delete(ids[:2]); err != nil {
		t.Fatal(err)
	}
	if n, err := jcl.Delete(ids[:2]); err != nil || n != 0 {
		t.Fatalf("JSON re-delete = %d, %v; want 0", n, err)
	}
	if n, err := bcl.Delete(ids[:2]); err != nil || n != 0 {
		t.Fatalf("binary re-delete = %d, %v; want 0", n, err)
	}
	// And generation 0 of a fresh collection reads back as 0.
	if _, gen, err := jcl.Config(); err != nil || gen != 0 {
		t.Fatalf("fresh generation = %d, %v; want 0", gen, err)
	}
}

func TestGarbagePreambleDropsConnection(t *testing.T) {
	srv := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("VXXXXXXXjunk after a preamble that almost looks binary")); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, conn)
	assertServerAlive(t, srv)
}

func TestTruncatedFrameDropsConnection(t *testing.T) {
	srv := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Preamble, then a header declaring 100 body bytes with only 10 sent.
	var msg []byte
	msg = append(msg, binPreamble...)
	msg = binary.LittleEndian.AppendUint32(msg, 100)
	msg = binary.LittleEndian.AppendUint32(msg, 0xDEADBEEF)
	msg = append(msg, make([]byte, 10)...)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	awaitClosed(t, conn)
	assertServerAlive(t, srv)
}

func TestCorruptCRCDropsConnection(t *testing.T) {
	srv := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := beginWireBody(nil, 7, binPing)
	frame := persist.AppendFrame([]byte(binPreamble), body)
	frame[len(frame)-1] ^= 0x40 // tamper inside the body
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, conn)
	assertServerAlive(t, srv)
}

func TestOversizedBinaryFrameRefused(t *testing.T) {
	srv := startServerOpts(t, Options{MaxRequestBytes: 4096})
	cl := dialBin(t, srv)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// 100 vectors x 8 dims x 4 bytes is ~3.2KB of payload — fine; 2000
	// vectors is ~64KB — over the 4KB cap. The server must answer with a
	// connection-fatal error naming the limit, never allocate the body.
	_, err := cl.Insert(vecsFor(2000, 25))
	if err == nil {
		t.Fatal("oversized binary insert accepted")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize error does not name the limit: %v", err)
	}
	// The connection is gone; later calls fail fast.
	if err := cl.Ping(); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
	assertServerAlive(t, srv)
}

func TestOversizedJSONRequestRefused(t *testing.T) {
	srv := startServerOpts(t, Options{MaxRequestBytes: 4096})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// ~2000 vectors of dim 8 in ASCII blows well past 4KB mid-decode.
	_, err = cl.Insert(vecsFor(2000, 26))
	if err == nil {
		t.Fatal("oversized JSON insert accepted")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize error does not name the limit: %v", err)
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("connection survived an oversized JSON request")
	}
	assertServerAlive(t, srv)
}

// TestMalformedPayloadAnswersWithoutDropping: a frame whose checksum
// matches but whose payload contradicts itself (hostile count fields) is
// a per-request error — the stream stays in sync and the connection
// stays up.
func TestMalformedPayloadAnswersWithoutDropping(t *testing.T) {
	srv := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(binPreamble)); err != nil {
		t.Fatal(err)
	}
	// A delete declaring 1<<30 ids with no bytes behind them.
	body := beginWireBody(nil, 9, binDelete)
	body = binary.LittleEndian.AppendUint32(body, 1<<30)
	if _, err := conn.Write(persist.AppendFrame(nil, body)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	respBody, err := persist.ReadFrame(br, maxResponseBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, resp, err := decodeBinResponse(respBody)
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || resp.OK || resp.Error == "" {
		t.Fatalf("malformed payload answered with id=%d %+v", id, resp)
	}
	// An unknown kind likewise answers by id and keeps the stream.
	body = beginWireBody(nil, 10, 200)
	if _, err := conn.Write(persist.AppendFrame(nil, body)); err != nil {
		t.Fatal(err)
	}
	respBody, err = persist.ReadFrame(br, maxResponseBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, resp, err = decodeBinResponse(respBody)
	if err != nil || id != 10 || resp.OK {
		t.Fatalf("unknown kind: id=%d resp=%+v err=%v", id, resp, err)
	}
	// The same connection still serves real requests.
	body = beginWireBody(nil, 11, binPing)
	if _, err := conn.Write(persist.AppendFrame(nil, body)); err != nil {
		t.Fatal(err)
	}
	respBody, err = persist.ReadFrame(br, maxResponseBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, resp, err := decodeBinResponse(respBody); err != nil || id != 11 || !resp.OK {
		t.Fatalf("connection broken after malformed payloads: id=%d resp=%+v err=%v", id, resp, err)
	}
}

// TestPipelinedInterleavedBurst hammers one binary connection from many
// goroutines at a small pipeline depth, proving response-to-request
// matching under out-of-order completion and backpressure.
func TestPipelinedInterleavedBurst(t *testing.T) {
	srv := startServerOpts(t, Options{PipelineDepth: 4})
	cl := dialBin(t, srv)
	seed := vecsFor(64, 27)
	ids, err := cl.Insert(seed)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch i % 4 {
				case 0:
					if err := cl.Ping(); err != nil {
						errs <- err
						return
					}
				case 1:
					q := seed[(w*25+i)%len(seed)]
					res, err := cl.Search(q, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(res) != 1 || res[0].ID != ids[(w*25+i)%len(seed)] {
						errs <- fmt.Errorf("worker %d: self-search answered id %d, want %d — responses crossed",
							w, res[0].ID, ids[(w*25+i)%len(seed)])
						return
					}
				case 2:
					qs := [][]float32{seed[w%len(seed)], seed[(w+1)%len(seed)]}
					res, err := cl.SearchBatch(qs, 2)
					if err != nil {
						errs <- err
						return
					}
					if len(res) != 2 {
						errs <- fmt.Errorf("worker %d: %d batch lists", w, len(res))
						return
					}
				default:
					if _, err := cl.Insert(vecsFor(2, int64(1000+w*100+i))); err != nil {
						errs <- err
						return
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
}

// TestWireChurnRace mixes JSON and binary clients against insert, delete,
// and flush churn on one server; under -race it proves the whole
// dual-protocol access layer down to the collection is data-race free.
func TestWireChurnRace(t *testing.T) {
	srv, seedClient := startServer(t)
	ids, err := seedClient.Insert(vecsFor(200, 28))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Three binary searchers pipelining on one shared client, two JSON
	// clients, one binary inserter, one JSON deleter, one flusher.
	shared := dialBin(t, srv)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := vecsFor(4, int64(500+w))
			for i := 0; i < 20; i++ {
				switch {
				case w < 3:
					if _, err := shared.SearchBatch(batch, 3); err != nil {
						errs <- err
						return
					}
				case w < 5:
					cl, err := Dial(srv.Addr())
					if err != nil {
						errs <- err
						return
					}
					_, serr := cl.Search(batch[0], 3)
					cl.Close()
					if serr != nil {
						errs <- serr
						return
					}
				case w == 5:
					if _, err := shared.Insert(vecsFor(5, int64(700+i))); err != nil {
						errs <- err
						return
					}
				case w == 6:
					if _, err := seedClient.Delete(ids[(3*i)%len(ids) : (3*i)%len(ids)+1]); err != nil {
						errs <- err
						return
					}
				default:
					if i%5 == 0 {
						if err := seedClient.Flush(); err != nil {
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
	assertServerAlive(t, srv)
}

// TestIdleTimeoutReapsDeadClients: with an idle deadline set, a silent
// connection is dropped — the goroutine-and-fd-per-dead-client leak — but
// an active client is never reaped between its requests.
func TestIdleTimeoutReapsDeadClients(t *testing.T) {
	srv := startServerOpts(t, Options{IdleTimeout: 150 * time.Millisecond})
	dead, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	awaitClosed(t, dead) // never sends a byte: must be reaped
	// A binary client that went silent after its preamble is reaped too.
	deadBin, err := DialBinary(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer deadBin.Close()
	start := time.Now()
	for time.Since(start) < 3*time.Second {
		if err := deadBin.Ping(); err != nil {
			break // reaped
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err := deadBin.Ping(); err == nil {
		t.Fatal("idle binary connection never reaped")
	}
	// An active client spanning many idle windows keeps working.
	live, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i := 0; i < 8; i++ {
		if err := live.Ping(); err != nil {
			t.Fatalf("active client reaped on ping %d: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	assertServerAlive(t, srv)
}

// TestCloseInterruptsIdleConnections: Server.Close must return promptly
// even with connected-but-silent clients on both protocols and an
// arbitrarily long idle timeout.
func TestCloseInterruptsIdleConnections(t *testing.T) {
	cfg := vdms.DefaultConfig()
	coll, err := vdms.NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	srv, err := NewWithOptions(coll, "127.0.0.1:0", Options{IdleTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	jcl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jcl.Close()
	if err := jcl.Ping(); err != nil {
		t.Fatal(err)
	}
	bcl, err := DialBinary(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bcl.Close()
	if err := bcl.Ping(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on idle connections")
	}
}
