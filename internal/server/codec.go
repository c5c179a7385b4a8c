package server

// The binary wire codec. Every message — request or response — is one
// frame in internal/persist's record framing:
//
//	u32 length | u32 CRC32-C(body) | body
//	body = u64 requestID | u8 kind | payload
//
// exactly a WAL record with the LSN slot carrying the request id. All
// integers are little-endian; float32 payloads are raw IEEE-754 bit
// patterns (math.Float32bits), never ASCII. Every field is fixed-width,
// so zero values (a Deleted count of 0, a generation 0) are encoded and
// decoded like any other — nothing "vanishes" the way an omitempty JSON
// field can.
//
// A connection opts into the binary protocol by sending the 8-byte
// preamble "VDMSBIN1" immediately after connecting; its first byte 'V'
// can never begin a JSON value, which is how one listening port serves
// both protocols. Request ids are chosen by the client (any nonzero
// value; the pipelined client uses a counter) and echoed verbatim on the
// matching response, which may arrive out of order. The id 0 is reserved
// for connection-fatal server errors that cannot be attributed to one
// request (an oversized frame whose body was never read).
//
// Request kinds and payloads (the hot ops only — everything else stays on
// the JSON protocol):
//
//	binPing        (none)
//	binInsert      u32 count | u32 dim | count*dim raw f32
//	binSearch      u32 k | u32 dim | dim raw f32
//	binSearchBatch u32 k | u32 count | u32 dim | count*dim raw f32
//	binDelete      u32 n | n * u64 id
//
// Response kinds and payloads:
//
//	binErr             UTF-8 message (request failed; conn stays up for id != 0)
//	binPong            (none)
//	binInsertResp      u32 n | n * u64 id
//	binSearchResp      u32 n | n * (u64 id | u32 f32bits dist)
//	binSearchBatchResp u32 batches | per batch: u32 n | n * (id | dist)
//	binDeleteResp      u32 deleted

import (
	"encoding/binary"
	"fmt"
	"math"

	"vdtuner/internal/persist"
)

// binPreamble is the magic a client sends to negotiate the binary
// protocol; any other first byte on a fresh connection selects JSON.
const binPreamble = "VDMSBIN1"

// Binary message kinds. Requests and responses share the body layout;
// the kind byte disambiguates them.
const (
	binPing        byte = 1
	binInsert      byte = 2
	binSearch      byte = 3
	binSearchBatch byte = 4
	binDelete      byte = 5

	binErr             byte = 100
	binPong            byte = 101
	binInsertResp      byte = 102
	binSearchResp      byte = 103
	binSearchBatchResp byte = 104
	binDeleteResp      byte = 105
)

// wireBodyHeaderLen is the fixed body prefix: request id + kind.
const wireBodyHeaderLen = 9

// beginWireBody appends the body header (request id + kind) onto dst.
func beginWireBody(dst []byte, id uint64, kind byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, kind)
}

func appendU32(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// appendRows appends a batch as u32 count | u32 dim | count*dim raw f32 —
// what readRows reads back. The rows must be rectangular.
func appendRows(dst []byte, rows [][]float32, what string) ([]byte, error) {
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	dst = appendU32(appendU32(dst, len(rows)), dim)
	for _, v := range rows {
		if len(v) != dim {
			return nil, fmt.Errorf("server: ragged %s batch (row of %d floats in a dim-%d batch) cannot be binary-encoded", what, len(v), dim)
		}
		dst = persist.AppendFloat32s(dst, v)
	}
	return dst, nil
}

// encodeBinRequest builds the body of one request. Vector arguments must
// be rectangular (every row of the declared dimension); the caller
// validates before encoding.
func encodeBinRequest(dst []byte, id uint64, req *Request) ([]byte, error) {
	switch req.Op {
	case "ping":
		return beginWireBody(dst, id, binPing), nil
	case "insert":
		return appendRows(beginWireBody(dst, id, binInsert), req.Vectors, "insert")
	case "search":
		dst = beginWireBody(dst, id, binSearch)
		dst = appendU32(dst, req.K)
		dst = appendU32(dst, len(req.Query))
		return persist.AppendFloat32s(dst, req.Query), nil
	case "searchBatch":
		dst = appendU32(beginWireBody(dst, id, binSearchBatch), req.K)
		return appendRows(dst, req.Queries, "query")
	case "delete":
		return persist.AppendInt64s(beginWireBody(dst, id, binDelete), req.IDs), nil
	default:
		return nil, fmt.Errorf("server: op %q has no binary encoding (use the JSON protocol)", req.Op)
	}
}

// encodeBinResponse builds the body answering one dispatched request.
// The response kind derives from the request kind so a client can sanity-
// check the pairing; any error collapses to binErr.
func encodeBinResponse(dst []byte, id uint64, reqKind byte, resp *Response) []byte {
	if !resp.OK {
		dst = beginWireBody(dst, id, binErr)
		return append(dst, resp.Error...)
	}
	switch reqKind {
	case binPing:
		return beginWireBody(dst, id, binPong)
	case binInsert:
		return persist.AppendInt64s(beginWireBody(dst, id, binInsertResp), resp.IDs)
	case binSearch:
		dst = beginWireBody(dst, id, binSearchResp)
		return appendNeighbors(dst, resp.Neighbors)
	case binSearchBatch:
		dst = beginWireBody(dst, id, binSearchBatchResp)
		dst = appendU32(dst, len(resp.Batches))
		for _, list := range resp.Batches {
			dst = appendNeighbors(dst, list)
		}
		return dst
	case binDelete:
		dst = beginWireBody(dst, id, binDeleteResp)
		return appendU32(dst, resp.Deleted)
	default:
		dst = beginWireBody(dst, id, binErr)
		return append(dst, fmt.Sprintf("unknown binary request kind %d", reqKind)...)
	}
}

func appendNeighbors(dst []byte, ns []Neighbor) []byte {
	dst = appendU32(dst, len(ns))
	for _, n := range ns {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n.ID))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(n.Dist))
	}
	return dst
}

// newWireReader reads one message body with persist's bounds-checked
// payload reader — the one the WAL and snapshot decoders use, so the wire
// and the disk share every hostile-size check. The frame CRC already
// matched, so a shortfall means the peer and we disagree about the schema:
// a per-message error, not stream corruption.
func newWireReader(body []byte) *persist.PayloadReader {
	return persist.NewPayloadReader(body, func(off int, reason string) error {
		return fmt.Errorf("server: malformed binary payload at offset %d: %s", off, reason)
	})
}

// readRows reads a batch of count rows of dim raw floats each as a
// slice-of-slices over one flat backing array (two allocations, never
// aliasing the reusable frame buffer). An empty batch is spelled 0 x 0.
func readRows(r *persist.PayloadReader, count, dim int) [][]float32 {
	if count == 0 && dim == 0 {
		return [][]float32{}
	}
	if count == 0 {
		r.Failf("empty batch with dim %d", dim)
	}
	flat := r.Rect(count, dim)
	if r.Err() != nil {
		return nil
	}
	out := make([][]float32, count)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

func readNeighbors(r *persist.PayloadReader) []Neighbor {
	n := r.Count(12)
	if r.Err() != nil {
		return nil
	}
	out := make([]Neighbor, n)
	for i := range out {
		out[i].ID = r.I64()
		out[i].Dist = math.Float32frombits(r.U32())
	}
	return out
}

// decodeBinRequest decodes a request body into the shared Request shape
// (so the binary path reuses the same dispatch as JSON). Decoded slices
// are fresh copies; the frame buffer is reusable immediately.
func decodeBinRequest(body []byte) (id uint64, kind byte, req *Request, err error) {
	r := newWireReader(body)
	id = r.U64()
	kb := r.Take(1)
	if r.Err() != nil {
		return 0, 0, nil, r.Err()
	}
	kind = kb[0]
	req = &Request{}
	switch kind {
	case binPing:
		req.Op = "ping"
	case binInsert:
		req.Op = "insert"
		count, dim := int(r.U32()), int(r.U32())
		req.Vectors = readRows(r, count, dim)
	case binSearch:
		req.Op = "search"
		req.K = int(r.U32())
		req.Query = r.Float32s(int(r.U32()))
	case binSearchBatch:
		req.Op = "searchBatch"
		req.K = int(r.U32())
		count, dim := int(r.U32()), int(r.U32())
		req.Queries = readRows(r, count, dim)
	case binDelete:
		req.Op = "delete"
		req.IDs = r.Int64s()
	default:
		return id, kind, nil, fmt.Errorf("server: unknown binary request kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return id, kind, nil, err
	}
	return id, kind, req, nil
}

// decodeBinResponse decodes a response body into the shared Response
// shape. Fixed-width fields mean a zero Deleted count round-trips
// faithfully — there is no omitted-field ambiguity on this codec.
func decodeBinResponse(body []byte) (id uint64, resp *Response, err error) {
	r := newWireReader(body)
	id = r.U64()
	kb := r.Take(1)
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	resp = &Response{}
	switch kb[0] {
	case binErr:
		resp.Error = string(r.Take(r.Remaining()))
	case binPong:
		resp.OK = true
	case binInsertResp:
		resp.OK = true
		resp.IDs = r.Int64s()
	case binSearchResp:
		resp.OK = true
		resp.Neighbors = readNeighbors(r)
	case binSearchBatchResp:
		resp.OK = true
		nb := r.Count(4)
		resp.Batches = make([][]Neighbor, 0, nb)
		for i := 0; i < nb && r.Err() == nil; i++ {
			resp.Batches = append(resp.Batches, readNeighbors(r))
		}
	case binDeleteResp:
		resp.OK = true
		resp.Deleted = int(r.U32())
	default:
		return id, nil, fmt.Errorf("server: unknown binary response kind %d", kb[0])
	}
	if err := r.Done(); err != nil {
		return id, nil, err
	}
	return id, resp, nil
}
