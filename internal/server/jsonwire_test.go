package server

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// TestJSONReferenceMirrorsWire keeps the fuzzers' reference structs in
// step with the wire types: the same fields, tags and order, each of the
// same type or of the plain type beneath a fast-path type.
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
			if w.Name != r.Name || w.Tag != r.Tag || !w.Type.ConvertibleTo(r.Type) || w.Type.Kind() != r.Type.Kind() {
				t.Fatalf("%s.%s %s `%s` is mirrored by %s.%s %s `%s`", wire, w.Name, w.Type, w.Tag, ref, r.Name, r.Type, r.Tag)
			}
		}
	}
}

// TestJSONFastPathsTakeCanonicalShapes proves the shapes the clients and
// the server write are parsed by the fast paths, not handed on to
// json.Unmarshal: the fuzzers check what the fast paths decode, not that
// they decode anything.
func TestJSONFastPathsTakeCanonicalShapes(t *testing.T) {
	q := vecsFor(3, 40)
	ns := []Neighbor{{ID: 7, Dist: 0.25}, {ID: -1, Dist: 1e-7}}
	req, err := appendRequestJSON(nil, &Request{Op: "searchBatch", Queries: q, Query: q[0], K: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := appendResponseJSON(nil, &Response{OK: true, Neighbors: ns, Batches: [][]Neighbor{ns, {}, ns[:1]}})
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]json.RawMessage{}
	for _, msg := range [][]byte{req, resp} {
		if err := json.Unmarshal(msg, &fields); err != nil {
			t.Fatal(err)
		}
	}
	for name, parse := range map[string]func([]byte) (any, bool){
		"query":     func(b []byte) (any, bool) { return parseFloats(b) },
		"queries":   func(b []byte) (any, bool) { return parseRows(b) },
		"neighbors": func(b []byte) (any, bool) { return parseNeighbors(b) },
		"batches":   func(b []byte) (any, bool) { return parseBatches(b) },
	} {
		if _, ok := parse(fields[name]); !ok {
			t.Errorf("%s: the fast path declined %s", name, fields[name])
		}
	}
	// The empty shapes are canonical too.
	if _, ok := parseRows([]byte(`[[],[1]]`)); !ok {
		t.Error("the rows fast path declined an empty row")
	}
	if _, ok := parseBatches([]byte(`[]`)); !ok {
		t.Error("the batches fast path declined an empty batch")
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
