package server

// The JSON protocol's hot path, without reflection. A JSON message is one
// object per line, and the bytes are exactly what json.Encoder writes for
// Request and Response: appendRequestJSON and appendResponseJSON emit the
// fields in struct order, honour each tag's omitempty, and format float32s
// by encoding/json's rule ('f', or 'e' below 1e-6 and from 1e21 up, with
// "e-09" cleaned to "e-9"; NaN and ±Inf are a json.UnsupportedValueError).
// On the read side json.Decoder still frames every message, and the hot
// fields carry types whose UnmarshalJSON parses the canonical shape (an
// array of plain numbers, {"id":…,"dist":…} objects) directly and hands
// any other bytes to json.Unmarshal into the plain type.
//
// encoding/json stays the reference semantics rather than a second codec
// beside this one: it marshals the cold nested values (Stats, Config, the
// reconfigure RawMessage) and every string that needs escaping, and it
// decodes whatever the fast paths decline. FuzzJSONRequest and
// FuzzJSONResponse hold both directions to it byte for byte.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// appendRequestJSON appends req as json.Encoder writes it, newline
// included.
func appendRequestJSON(dst []byte, req *Request) ([]byte, error) {
	dst = appendStringJSON(append(dst, `{"op":`...), req.Op)
	var err error
	if len(req.Vectors) > 0 {
		if dst, err = appendRowsJSON(append(dst, `,"vectors":`...), req.Vectors); err != nil {
			return dst, err
		}
	}
	if len(req.Query) > 0 {
		if dst, err = appendFloatsJSON(append(dst, `,"query":`...), req.Query); err != nil {
			return dst, err
		}
	}
	if req.K != 0 {
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(req.K), 10)
	}
	if len(req.Queries) > 0 {
		if dst, err = appendRowsJSON(append(dst, `,"queries":`...), req.Queries); err != nil {
			return dst, err
		}
	}
	if len(req.IDs) > 0 {
		dst = appendIDsJSON(dst, req.IDs)
	}
	if len(req.Config) > 0 {
		if dst, err = appendMarshalJSON(dst, `,"config":`, req.Config); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

// appendResponseJSON appends resp as json.Encoder writes it, newline
// included.
func appendResponseJSON(dst []byte, resp *Response) ([]byte, error) {
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	if resp.Error != "" {
		dst = appendStringJSON(append(dst, `,"error":`...), resp.Error)
	}
	if len(resp.IDs) > 0 {
		dst = appendIDsJSON(dst, resp.IDs)
	}
	var err error
	if len(resp.Neighbors) > 0 {
		if dst, err = appendNeighborsJSON(append(dst, `,"neighbors":`...), resp.Neighbors); err != nil {
			return dst, err
		}
	}
	if len(resp.Batches) > 0 {
		dst = append(dst, `,"batches":[`...)
		for i, list := range resp.Batches {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendNeighborsJSON(dst, list); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if resp.Stats != nil {
		if dst, err = appendMarshalJSON(dst, `,"stats":`, resp.Stats); err != nil {
			return dst, err
		}
	}
	dst = strconv.AppendInt(append(dst, `,"deleted":`...), int64(resp.Deleted), 10)
	if resp.Config != nil {
		if dst, err = appendMarshalJSON(dst, `,"config":`, resp.Config); err != nil {
			return dst, err
		}
	}
	dst = strconv.AppendUint(append(dst, `,"generation":`...), resp.Generation, 10)
	return append(dst, "}\n"...), nil
}

// appendMarshalJSON appends key and encoding/json's encoding of a cold
// nested value.
func appendMarshalJSON(dst []byte, key string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, key...), b...), nil
}

// appendStringJSON appends s as a JSON string. A string of printable ASCII
// that json.Encoder (HTML escaping on, its default) writes verbatim is
// copied between quotes; any other goes through json.Marshal.
func appendStringJSON(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendIDsJSON(dst []byte, ids []int64) []byte {
	dst = append(dst, `,"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	return append(dst, ']')
}

// appendFloat32JSON appends f as encoding/json formats a float32.
func appendFloat32JSON(dst []byte, f float32) ([]byte, error) {
	f64 := float64(f)
	if math.IsNaN(f64) || math.IsInf(f64, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f64, 'g', -1, 32)}
	}
	format := byte('f')
	if abs := float32(math.Abs(f64)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f64, format, -1, 32)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

func appendFloatsJSON(dst []byte, v []float32) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat32JSON(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendRowsJSON(dst []byte, rows [][]float32) ([]byte, error) {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloatsJSON(dst, row); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendNeighborsJSON(dst []byte, ns []Neighbor) ([]byte, error) {
	if ns == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, n := range ns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"id":`...), n.ID, 10)
		var err error
		if dst, err = appendFloat32JSON(append(dst, `,"dist":`...), n.Dist); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// The hot fields' types. Each is its plain slice type with an
// UnmarshalJSON that parses the canonical shape into freshly allocated
// slices (rows share one backing array, each capped at its own length, so
// no row can grow into the next) and hands any other bytes, and a field
// a duplicate key already filled, to json.Unmarshal into the plain type.
type (
	jsonFloats    []float32
	jsonRows      [][]float32
	jsonNeighbors []Neighbor
	jsonBatches   [][]Neighbor
)

func (v *jsonFloats) UnmarshalJSON(data []byte) error {
	return unmarshalFast((*[]float32)(v), data, parseFloats)
}

func (v *jsonRows) UnmarshalJSON(data []byte) error {
	return unmarshalFast((*[][]float32)(v), data, parseRows)
}

func (v *jsonNeighbors) UnmarshalJSON(data []byte) error {
	return unmarshalFast((*[]Neighbor)(v), data, parseNeighbors)
}

func (v *jsonBatches) UnmarshalJSON(data []byte) error {
	return unmarshalFast((*[][]Neighbor)(v), data, parseBatches)
}

// unmarshalFast sets *v from parse. A value parse declines, and a field
// an earlier duplicate key filled (which encoding/json decodes into
// rather than replacing), go to json.Unmarshal.
func unmarshalFast[T any](v *[]T, data []byte, parse func([]byte) ([]T, bool)) error {
	if *v == nil {
		if out, ok := parse(data); ok {
			*v = out
			return nil
		}
	}
	return json.Unmarshal(data, v)
}

// parseFloats parses an array of plain numbers.
func parseFloats(data []byte) ([]float32, bool) {
	if !isArray(data) {
		return nil, false
	}
	s := jsonScanner{b: data, ok: true}
	out := make([]float32, 0, countByte(data, ',')+1)
	s.array(func() { out = append(out, s.f32()) })
	return out, s.end()
}

// parseRows parses an array of arrays of plain numbers.
func parseRows(data []byte) ([][]float32, bool) {
	if !isArray(data) {
		return nil, false
	}
	s := jsonScanner{b: data, ok: true}
	flat := make([]float32, 0, countByte(data, ',')+1)
	rows := make([][]float32, 0, countByte(data, '[')-1)
	s.array(func() {
		start := len(flat)
		s.array(func() { flat = append(flat, s.f32()) })
		rows = append(rows, flat[start:len(flat):len(flat)])
	})
	return rows, s.end()
}

// parseNeighbors parses an array of {"id":…,"dist":…} objects.
func parseNeighbors(data []byte) ([]Neighbor, bool) {
	if !isArray(data) {
		return nil, false
	}
	s := jsonScanner{b: data, ok: true}
	out := make([]Neighbor, 0, countByte(data, '{'))
	s.array(func() { out = append(out, s.neighbor()) })
	return out, s.end()
}

// parseBatches parses an array of arrays of {"id":…,"dist":…} objects.
func parseBatches(data []byte) ([][]Neighbor, bool) {
	if !isArray(data) {
		return nil, false
	}
	s := jsonScanner{b: data, ok: true}
	flat := make([]Neighbor, 0, countByte(data, '{'))
	lists := make([][]Neighbor, 0, countByte(data, '[')-1)
	s.array(func() {
		start := len(flat)
		s.array(func() { flat = append(flat, s.neighbor()) })
		lists = append(lists, flat[start:len(flat):len(flat)])
	})
	return lists, s.end()
}

// isArray keeps the fast paths from allocating for a value that cannot be
// theirs (null, above all).
func isArray(data []byte) bool { return len(data) > 0 && data[0] == '[' }

// countByte bounds a fast path's allocation: an array holds at most one
// more number than it has commas, and one list per '[' inside it.
func countByte(data []byte, c byte) int { return bytes.Count(data, []byte{c}) }

// jsonScanner reads one canonical shape out of a value json.Decoder has
// framed. The first deviation clears ok and makes every later step a
// no-op, so a parse is a straight line of steps checked once at the end.
type jsonScanner struct {
	b  []byte
	i  int
	ok bool
}

func (s *jsonScanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// lit consumes tok after optional whitespace.
func (s *jsonScanner) lit(tok string) {
	if !s.ok {
		return
	}
	s.space()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		s.ok = false
		return
	}
	s.i += len(tok)
}

// next consumes c if it is the next byte after optional whitespace.
func (s *jsonScanner) next(c byte) bool {
	if !s.ok {
		return false
	}
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether the whole input was read without a deviation.
func (s *jsonScanner) end() bool {
	s.space()
	return s.ok && s.i == len(s.b)
}

// array reads one JSON array, calling elem once per element.
func (s *jsonScanner) array(elem func()) {
	s.lit("[")
	if s.next(']') {
		return
	}
	for s.ok {
		elem()
		if s.next(']') {
			return
		}
		s.lit(",")
	}
}

func (s *jsonScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// number reads one number of JSON's grammar and returns its bytes.
func (s *jsonScanner) number() []byte {
	if !s.ok {
		return nil
	}
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		s.ok = false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			s.ok = false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.ok = false
		}
	}
	return s.b[start:s.i]
}

// f32 reads a number as encoding/json decodes one into a float32; a
// number out of float32's range is a deviation.
func (s *jsonScanner) f32() float32 {
	tok := s.number()
	if !s.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		s.ok = false
	}
	return float32(f)
}

// i64 reads a number as encoding/json decodes one into an int64.
func (s *jsonScanner) i64() int64 {
	tok := s.number()
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		s.ok = false
	}
	return n
}

// neighbor reads {"id":…,"dist":…}, keys exactly so and in that order.
func (s *jsonScanner) neighbor() (n Neighbor) {
	s.lit("{")
	s.lit(`"id"`)
	s.lit(":")
	n.ID = s.i64()
	s.lit(",")
	s.lit(`"dist"`)
	s.lit(":")
	n.Dist = s.f32()
	s.lit("}")
	return n
}
