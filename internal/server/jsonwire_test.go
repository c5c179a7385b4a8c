package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"testing"
)

// TestJSONReferenceMirrorsWire keeps the fuzzers' reference structs in
// step with the wire types: the same fields, tags, types and order.
func TestJSONReferenceMirrorsWire(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(Request{}), reflect.TypeOf(refRequest{})},
		{reflect.TypeOf(Response{}), reflect.TypeOf(refResponse{})},
	} {
		wire, ref := pair[0], pair[1]
		if wire.NumField() != ref.NumField() {
			t.Fatalf("%s has %d fields, %s %d", wire, wire.NumField(), ref, ref.NumField())
		}
		for i := 0; i < wire.NumField(); i++ {
			w, r := wire.Field(i), ref.Field(i)
			if w.Name != r.Name || w.Tag != r.Tag || w.Type != r.Type {
				t.Fatalf("%s.%s %s `%s` is mirrored by %s.%s %s `%s`", wire, w.Name, w.Type, w.Tag, ref, r.Name, r.Type, r.Tag)
			}
		}
	}
}

// TestJSONFastPathsTakeCanonicalShapes proves the messages the clients
// and the server write are parsed where they lie in the read buffer,
// never framed and handed to json.Unmarshal: the fuzzers check what the
// reader decodes, not which path decoded it.
func TestJSONFastPathsTakeCanonicalShapes(t *testing.T) {
	q := vecsFor(3, 40)
	ns := []Neighbor{{ID: 7, Dist: 0.25}, {ID: -1, Dist: 1e-7}}
	for _, want := range []*Request{
		{Op: "searchBatch", Vectors: q, Query: q[0], K: 2, Queries: q, IDs: []int64{1, -2}},
		{Op: "insert", Vectors: [][]float32{{}, {1}}}, // the empty row is canonical too
		{Op: "ping"},
	} {
		msg, err := appendRequestJSON(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		rd := newJSONReader(bufio.NewReader(bytes.NewReader(msg)))
		var got Request
		if err := rd.readRequest(&got); err != nil || !reflect.DeepEqual(&got, want) || rd.buf != nil {
			t.Errorf("%s: read %+v, %v (framed: %t)", msg, got, err, rd.buf != nil)
		}
	}
	for _, want := range []*Response{
		{OK: true, IDs: []int64{4, 5}, Neighbors: ns, Batches: [][]Neighbor{ns, {}, ns[:1]}, Deleted: 3, Generation: 9},
		{Error: "vdms: query 0 has dim 3, want 8"},
		{OK: true},
	} {
		msg, err := appendResponseJSON(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		rd := newJSONReader(bufio.NewReader(bytes.NewReader(msg)))
		var got Response
		if err := rd.readResponse(&got); err != nil || !reflect.DeepEqual(&got, want) || rd.buf != nil {
			t.Errorf("%s: read %+v, %v (framed: %t)", msg, got, err, rd.buf != nil)
		}
	}
}

// TestAllocGateJSONEncode: the append encoders write the hot messages
// into a warmed, reused buffer without allocating. `make alloc-gate` runs
// it by name.
func TestAllocGateJSONEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	query := make([]float32, 100)
	for i := range query {
		query[i] = float32(rng.NormFloat64())
	}
	ns := make([]Neighbor, 20)
	for i := range ns {
		ns[i] = Neighbor{ID: rng.Int63n(1 << 40), Dist: rng.Float32() * 100}
	}
	req := &Request{Op: "search", Query: query, K: 20}
	resp := &Response{OK: true, Neighbors: ns}
	var buf []byte
	for name, encode := range map[string]func() error{
		"100-d search request": func() (err error) { buf, err = appendRequestJSON(buf[:0], req); return err },
		"k=20 search response": func() (err error) { buf, err = appendResponseJSON(buf[:0], resp); return err },
	} {
		if err := encode(); err != nil { // warms buf
			t.Fatal(err)
		}
		if perRun := testing.AllocsPerRun(100, func() { _ = encode() }); perRun != 0 {
			t.Errorf("encoding a %s allocates %.1f objects, want 0", name, perRun)
		}
	}
}

// repeatReader serves msg over and over, so a reader warmed on it never
// runs dry.
type repeatReader struct {
	msg []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.msg[r.off:])
	r.off = (r.off + n) % len(r.msg)
	return n, nil
}

// TestAllocGateJSONDecode: a warm reader decodes the hot messages with
// one allocation per field the message hands on (and the op string), not
// one per element. `make alloc-gate` runs it by name.
func TestAllocGateJSONDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	query := make([]float32, 100)
	for i := range query {
		query[i] = float32(rng.NormFloat64())
	}
	ns := make([]Neighbor, 20)
	for i := range ns {
		ns[i] = Neighbor{ID: rng.Int63n(1 << 40), Dist: rng.Float32() * 100}
	}
	reqMsg, err := appendRequestJSON(nil, &Request{Op: "search", Query: query, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	respMsg, err := appendResponseJSON(nil, &Response{OK: true, Neighbors: ns})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	var resp Response
	for _, c := range []struct {
		name   string
		msg    []byte
		read   func(*jsonReader) error
		allocs float64
	}{
		{"100-d search request", reqMsg, func(rd *jsonReader) error { return rd.readRequest(&req) }, 2},
		{"k=20 search response", respMsg, func(rd *jsonReader) error { return rd.readResponse(&resp) }, 1},
	} {
		// A buffer of one message exactly: every message lies whole in it.
		rd := newJSONReader(bufio.NewReaderSize(&repeatReader{msg: c.msg}, len(c.msg)))
		if err := c.read(rd); err != nil { // warms the scratch
			t.Fatal(err)
		}
		if perRun := testing.AllocsPerRun(100, func() { _ = c.read(rd) }); perRun > c.allocs {
			t.Errorf("decoding a %s allocates %.1f objects, want at most %.0f", c.name, perRun, c.allocs)
		}
		if rd.err != nil || rd.buf != nil {
			t.Errorf("%s: reader failed (%v) or framed a message", c.name, rd.err)
		}
	}
	if !reflect.DeepEqual(req.Query, query) || !reflect.DeepEqual(resp.Neighbors, ns) {
		t.Error("the gated reads decoded something else")
	}
}

// TestClientFailureSticks: a fake server answers the first request with a
// response the client cannot read — torn, invalid, or valid JSON of the
// wrong shape — and has a well-formed answer queued behind it. That call
// and every later one fail, none of them parses the queued answer from
// the broken stream, and none of the later ones is sent at all.
func TestClientFailureSticks(t *testing.T) {
	const queued = `{"ok":true,"ids":[7],"deleted":0,"generation":0}` + "\n"
	for name, reply := range map[string]string{
		"torn":       `{"ok":true,"ids":[1,2`,
		"invalid":    `{"ok":true,"ids":[1,x]}` + "\n" + queued,
		"wrong type": `{"ok":"yes","ids":[1]}` + "\n" + queued,
		"not object": `[{"ok":true}]` + "\n" + queued,
	} {
		name, reply := name, reply
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			requests := make(chan int, 1)
			go func() {
				n := 0
				defer func() { requests <- n }()
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					if n++; n == 1 {
						conn.Write([]byte(reply))
						if name == "torn" {
							conn.(*net.TCPConn).CloseWrite()
						}
					}
				}
			}()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if ids, err := cl.Insert(vecsFor(1, 1)); err == nil {
				t.Fatalf("unreadable response read as ids %v", ids)
			}
			if ids, err := cl.Insert(vecsFor(1, 2)); err == nil {
				t.Fatalf("the call after a broken response read ids %v", ids)
			}
			if err := cl.Ping(); err == nil {
				t.Fatal("a later call succeeded on a broken stream")
			}
			cl.Close()
			if n := <-requests; n != 1 {
				t.Fatalf("the server received %d requests, want 1", n)
			}
		})
	}
}

// TestGarbageJSONDropsConnection: a request that turns to garbage
// mid-message is refused as soon as the garbage arrives, as json.Decoder
// refused it, not when the peer finally closes: the peer here keeps its
// connection open and the server has no idle timeout.
func TestGarbageJSONDropsConnection(t *testing.T) {
	srv := startServerOpts(t, Options{})
	for _, garbage := range []string{`{"op":"search","k":x`, "{\"op\":\"sea\x01"} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(garbage)); err != nil {
			t.Fatal(err)
		}
		awaitClosed(t, conn)
		conn.Close()
	}
	assertServerAlive(t, srv)
}
