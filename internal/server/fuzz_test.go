package server

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The fuzz contract for the binary wire, the one the snapshot/WAL decoders
// already keep (internal/persist/fuzz_test.go; the payload reader is the
// same one): an arbitrary message body — the frame CRC only proves the
// bytes arrived as sent, not that they are sane — either decodes or fails
// with a per-message error. It never panics, what it decodes is never
// larger than a small multiple of the body that declared it, and every
// accepted message is canonical: re-encoding what was decoded gives back
// the body, byte for byte (so it also decodes equal). `make fuzz-smoke`
// runs both targets.

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
