package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"vdtuner/internal/vdms"
)

// The fuzz contract for the binary wire, the one the snapshot/WAL decoders
// already keep (internal/persist/fuzz_test.go; the payload reader is the
// same one): an arbitrary message body — the frame CRC only proves the
// bytes arrived as sent, not that they are sane — either decodes or fails
// with a per-message error. It never panics, what it decodes is never
// larger than a small multiple of the body that declared it, and every
// accepted message is canonical: re-encoding what was decoded gives back
// the body, byte for byte (so it also decodes equal).
//
// The JSON wire is held to encoding/json instead (jsonwire.go): arbitrary
// bytes decode through the fast paths to what json.Decoder makes of them
// by reflection alone, or both refuse them, and every accepted value
// encodes to json.Encoder's bytes, or both refuse it. `make fuzz-smoke`
// runs all four targets.

// maxDecodedPerBodyByte bounds a decoded message's heap size by its body's
// length. The worst honest case is a batch of dim-1 rows: 4 body bytes
// become a 4-byte float plus a 24-byte slice header.
const maxDecodedPerBodyByte = 8

func checkDecodedSize(t *testing.T, what string, decoded, body int) {
	t.Helper()
	if decoded > maxDecodedPerBodyByte*body+64 {
		t.Fatalf("%s: a %d-byte body decoded into %d bytes", what, body, decoded)
	}
}

func rowsBytes(rows [][]float32) int {
	n := 24 * len(rows)
	for _, r := range rows {
		n += 4 * len(r)
	}
	return n
}

// wireRequestSeeds are the request bodies wire_test.go puts on the wire:
// every op the codec carries, the empty batches, the hostile delete count
// of TestMalformedPayloadAnswersWithoutDropping and its unknown kind.
func wireRequestSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, req := range []*Request{
		{Op: "ping"},
		{Op: "insert", Vectors: vecsFor(3, 1)},
		{Op: "insert"},
		{Op: "search", Query: vecsFor(1, 2)[0], K: 5},
		{Op: "search", K: 1<<31 - 1},
		{Op: "searchBatch", Queries: vecsFor(4, 3), K: 2},
		{Op: "searchBatch", K: 3},
		{Op: "delete", IDs: []int64{0, 7, -1}},
		{Op: "delete"},
	} {
		body, err := encodeBinRequest(nil, uint64(len(seeds)+1), req)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	hostile := binary.LittleEndian.AppendUint32(beginWireBody(nil, 9, binDelete), 1<<30)
	// An insert whose count × dim product overflows into a match.
	overflow := beginWireBody(nil, 12, binInsert)
	overflow = binary.LittleEndian.AppendUint32(overflow, 1<<31)
	overflow = binary.LittleEndian.AppendUint32(overflow, 1<<31)
	return append(seeds, hostile, overflow, beginWireBody(nil, 10, 200), []byte{}, []byte{1, 2, 3})
}

func FuzzBinaryRequest(f *testing.F) {
	for _, body := range wireRequestSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, _, req, err := decodeBinRequest(body)
		if err != nil {
			if req != nil {
				t.Fatalf("refused body still returned a request: %+v", req)
			}
			return
		}
		checkDecodedSize(t, req.Op, rowsBytes(req.Vectors)+rowsBytes(req.Queries)+4*len(req.Query)+8*len(req.IDs), len(body))
		again, err := encodeBinRequest(nil, id, req)
		if err != nil {
			t.Fatalf("accepted %s request does not re-encode: %v", req.Op, err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("accepted %s request is not canonical:\n got  %x\n want %x", req.Op, again, body)
		}
	})
}

// requestKindOf maps a response kind back to the request kind it answers
// (what encodeBinResponse derives the response kind from).
var requestKindOf = map[byte]byte{
	binPong:            binPing,
	binInsertResp:      binInsert,
	binSearchResp:      binSearch,
	binSearchBatchResp: binSearchBatch,
	binDeleteResp:      binDelete,
}

func FuzzBinaryResponse(f *testing.F) {
	ns := []Neighbor{{ID: 3, Dist: 0.5}, {ID: -1, Dist: 0}}
	for kind, resp := range map[byte]*Response{
		binPing:        {OK: true},
		binInsert:      {OK: true, IDs: []int64{4, 5, 6}},
		binSearch:      {OK: true, Neighbors: ns},
		binSearchBatch: {OK: true, Batches: [][]Neighbor{ns, {}, ns[:1]}},
		binDelete:      {OK: true, Deleted: 0}, // TestZeroValuesSurviveBothCodecs
		binErr:         {Error: "vdms: k must be >= 1, got 0"},
	} {
		f.Add(encodeBinResponse(nil, 42, kind, resp))
	}
	// A batch response declaring 2^30 lists, and one whose only list
	// declares 2^30 neighbors, with nothing behind either count.
	hostile := binary.LittleEndian.AppendUint32(beginWireBody(nil, 9, binSearchBatchResp), 1<<30)
	f.Add(hostile)
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(beginWireBody(nil, 9, binSearchBatchResp), 1), 1<<30))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		id, resp, err := decodeBinResponse(body)
		if err != nil {
			if resp != nil {
				t.Fatalf("refused body still returned a response: %+v", resp)
			}
			return
		}
		decoded := len(resp.Error) + 8*len(resp.IDs) + 16*len(resp.Neighbors) + 24*len(resp.Batches)
		for _, b := range resp.Batches {
			decoded += 16 * len(b)
		}
		checkDecodedSize(t, "response", decoded, len(body))
		if again := encodeBinResponse(nil, id, requestKindOf[body[wireBodyHeaderLen-1]], resp); !bytes.Equal(again, body) {
			t.Fatalf("accepted response is not canonical:\n got  %x\n want %x", again, body)
		}
	})
}

// refRequest and refResponse are Request and Response with the plain
// field types: what encoding/json decodes and encodes by reflection alone.
// TestJSONReferenceMirrorsWire keeps them field for field in step.
type refRequest struct {
	Op      string          `json:"op"`
	Vectors [][]float32     `json:"vectors,omitempty"`
	Query   []float32       `json:"query,omitempty"`
	K       int             `json:"k,omitempty"`
	Queries [][]float32     `json:"queries,omitempty"`
	IDs     []int64         `json:"ids,omitempty"`
	Config  json.RawMessage `json:"config,omitempty"`
}

type refResponse struct {
	OK         bool                  `json:"ok"`
	Error      string                `json:"error,omitempty"`
	IDs        []int64               `json:"ids,omitempty"`
	Neighbors  []Neighbor            `json:"neighbors,omitempty"`
	Batches    [][]Neighbor          `json:"batches,omitempty"`
	Stats      *vdms.CollectionStats `json:"stats,omitempty"`
	Deleted    int                   `json:"deleted"`
	Config     *vdms.Config          `json:"config,omitempty"`
	Generation uint64                `json:"generation"`
}

func refOfRequest(r *Request) *refRequest {
	return &refRequest{r.Op, r.Vectors, r.Query, r.K, r.Queries, r.IDs, r.Config}
}

func refOfResponse(r *Response) *refResponse {
	return &refResponse{r.OK, r.Error, r.IDs, r.Neighbors, r.Batches, r.Stats, r.Deleted, r.Config, r.Generation}
}

// decodeBoth decodes data as the server and the client do (one value off
// a json.Decoder) into the wire type and into its reference twin, and
// fails unless both refuse it or both make the same value of it.
func decodeBoth(t *testing.T, data []byte, got, want any, ref func() any) bool {
	t.Helper()
	gotErr := json.NewDecoder(bytes.NewReader(data)).Decode(got)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: fast path error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(ref(), want) {
		t.Fatalf("%q: fast path decoded %+v, encoding/json %+v", data, ref(), want)
	}
	return gotErr == nil
}

// encodeBoth fails unless the append encoder and json.Encoder both refuse
// a value for the same reason or write the same bytes for it.
func encodeBoth(t *testing.T, got []byte, gotErr error, ref any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(ref)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%+v: append encoder error %v, json.Encoder error %v", ref, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("append encoder wrote\n %s\njson.Encoder wrote\n %s", got, want.Bytes())
	}
}

// floatEdgeBits are the float32s where encoding/json's format switches or
// refuses: the 'e' cut-offs at 1e-6 and 1e21 from both sides, the signed
// zeros, subnormals, and the non-finite values.
var floatEdgeBits = []uint32{
	math.Float32bits(1e-6), math.Float32bits(9.9e-7), math.Float32bits(1e21), math.Float32bits(9.99e20),
	math.Float32bits(-1e-7), math.Float32bits(123456.79), 0, 0x80000000, 1, 0x007fffff, 0x80000001,
	math.Float32bits(math.MaxFloat32), 0x7f800000, 0xff800000, 0x7fc00000,
}

func FuzzJSONRequest(f *testing.F) {
	for i, seed := range []string{
		`{"op":"search","query":[0.5,-1,1e-7,3e21,-0,1.5e-45],"k":20}`,
		`{"op":"insert","vectors":[[1,2],[3,4],[]]}`,
		`{"op":"searchBatch","queries":[[1,2],null,[3]],"k":2}`,
		`{"op":"search","query":[1e40],"k":1}`,
		`{"op":"search","query":["1",2]}`,
		`{"op":"search","query":[1,null]}`,
		`{"op":"search","query":{}}`,
		`{"op":"search","query":null,"vectors":"x"}`,
		`{"OP":"search","Query":[1,2],"K":3,"QUERIES":[[1]]}`,
		`{"op":"search","query":[1,2,3],"query":[4],"query":[5,6]}`,
		`{"op":"insert","vectors":[[1,2,3]],"vectors":[[4]]}`,
		`{"op":"x","unknown":[1,2],"query":[1]}`,
		" { \"op\" : \"search\" ,\n\t\"query\" : [ 1 , 2E+2 ] , \"k\" : 1 } \r\n",
		`{"op":"\u0073earch","query":[1]}`,
		`{"op":"<&>\u2028\n\"\\","query":[1]}`,
		"{\"op\":\"\xff\"}",
		`{"op":"search","query":[01]}`,
		`{"op":"search","query":[1.]}`,
		`{"op":"search","query":[-]}`,
		`{"op":"reconfigure","config":{ "nprobe" : 8 , "x":"<"}}`,
		`{"op":"delete","ids":[1,-2,9223372036854775807]}`,
		`{"op":"ping"}{"op":"flush"}`,
		`{"op":"search","query":[],"k":0}`,
		`null`, `[]`, ``, `{`,
	} {
		f.Add([]byte(seed), floatEdgeBits[i%len(floatEdgeBits)])
	}
	f.Fuzz(func(t *testing.T, data []byte, bits uint32) {
		var got Request
		var want refRequest
		if !decodeBoth(t, data, &got, &want, func() any { return refOfRequest(&got) }) {
			got = Request{Op: "search", K: 1}
		}
		b, err := appendRequestJSON(nil, &got)
		encodeBoth(t, b, err, refOfRequest(&got))
		// Any float32 at all, in each float field.
		f := math.Float32frombits(bits)
		got.Query = append(got.Query, f)
		got.Vectors = append(got.Vectors, []float32{f})
		got.Queries = append(got.Queries, nil, []float32{f, -f})
		b, err = appendRequestJSON(b[:0], &got)
		encodeBoth(t, b, err, refOfRequest(&got))
	})
}

func FuzzJSONResponse(f *testing.F) {
	for i, seed := range []string{
		`{"ok":true,"neighbors":[{"id":1,"dist":0.5},{"id":-2,"dist":1e-7},{"id":3,"dist":-0}],"deleted":0,"generation":0}`,
		`{"ok":true,"batches":[[{"id":1,"dist":2}],[],null],"deleted":0,"generation":0}`,
		`{"ok":true,"neighbors":[{"dist":0.5,"id":1}]}`,
		`{"ok":true,"neighbors":[{"ID":1,"Dist":0.5}]}`,
		`{"ok":true,"neighbors":[{"id":1,"dist":0.5,"x":1}]}`,
		`{"ok":true,"neighbors":[{"id":1}]}`,
		`{"ok":true,"neighbors":[{"id":1.5,"dist":0.5}]}`,
		`{"ok":true,"neighbors":[{"id":1,"dist":"0.5"}]}`,
		`{"ok":true,"neighbors":[{"id":1,"dist":1e40}]}`,
		`{"ok":true,"neighbors":[{"id":99999999999999999999,"dist":1}]}`,
		`{"ok":true,"neighbors":[null,{"id":1,"dist":1}]}`,
		`{"neighbors":[{"id":1,"dist":2},{"id":3,"dist":4}],"neighbors":[{"id":5}]}`,
		`{"batches":[[{"id":1,"dist":2},{"id":3,"dist":4}]],"batches":[[{"id":5,"dist":6}]],"batches":[[{"id":7},{"id":8}]]}`,
		" {\"ok\" : true , \"neighbors\" : [ { \"id\" : 1 , \"dist\" : 1E-3 } ] } ",
		`{"ok":false,"error":"unknown op \"x\" <&>\u2028","deleted":0,"generation":0}`,
		`{"ok":true,"stats":{"Rows":3},"deleted":1,"generation":7}`,
		`{"ok":true,"config":{"nprobe":8},"generation":2}`,
		`{"ok":true,"ids":[1,2,-3]}`,
		`{"ok":"yes"}`, `null`, ``,
	} {
		f.Add([]byte(seed), floatEdgeBits[i%len(floatEdgeBits)])
	}
	f.Fuzz(func(t *testing.T, data []byte, bits uint32) {
		var got Response
		var want refResponse
		if !decodeBoth(t, data, &got, &want, func() any { return refOfResponse(&got) }) {
			got = Response{OK: true}
		}
		b, err := appendResponseJSON(nil, &got)
		encodeBoth(t, b, err, refOfResponse(&got))
		// Any float32 at all, as a distance in each neighbor field.
		n := Neighbor{ID: int64(int32(bits)), Dist: math.Float32frombits(bits)}
		got.Neighbors = append(got.Neighbors, n)
		got.Batches = append(got.Batches, nil, []Neighbor{n, {ID: 1, Dist: -n.Dist}})
		b, err = appendResponseJSON(b[:0], &got)
		encodeBoth(t, b, err, refOfResponse(&got))
	})
}
