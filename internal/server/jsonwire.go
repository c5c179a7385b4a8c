package server

// The JSON protocol without reflection on its hot path. A JSON message is
// one object per line, and the bytes are exactly what json.Encoder writes
// for Request and Response: appendRequestJSON and appendResponseJSON emit
// the fields in struct order, honour each tag's omitempty, and format
// float32s by encoding/json's rule ('f', or 'e' below 1e-6 and from 1e21
// up, with "e-09" cleaned to "e-9"; NaN and ±Inf are a
// json.UnsupportedValueError). On the read side a jsonReader parses that
// canonical message straight from the connection's read buffer, one pass
// over its bytes, and frames anything else for json.Unmarshal.
//
// encoding/json stays the reference semantics rather than a second codec
// beside this one: it marshals the cold nested values (Stats, Config, the
// reconfigure RawMessage) and every string that needs escaping, and it
// decodes whatever the parser declines. FuzzJSONRequest,
// FuzzJSONResponse and FuzzJSONStream hold both directions to it, the
// last against json.Decoder over whole streams.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
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

// jsonReader reads one connection's JSON messages, one value per call,
// with json.Decoder's stream semantics: any whitespace between values, no
// newline required, values back to back, and io.EOF only at a clean end.
// Unlike json.Decoder it fails for good at its first error of any kind,
// so no later call parses from the middle of a broken stream.
//
// A message is parsed where it lies in the bufio.Reader's buffer when it
// is canonical (the shape the append encoders write: keys in field
// order, plain strings, arrays of numbers and {"id":…,"dist":…} objects)
// and whole in the buffer; the reader then discards exactly the bytes
// parsed. Anything else — a message the buffer splits or cannot hold,
// reordered, duplicate or differently cased keys, null, escapes,
// non-ASCII, stats or config — is framed into the reused buf by a
// string-aware depth scan, parsed from there by the same steps, and
// handed to json.Unmarshal when they refuse it.
type jsonReader struct {
	br  *bufio.Reader
	buf []byte // the framed value, reused across messages
	s   jsonScanner
	err error
}

func newJSONReader(br *bufio.Reader) *jsonReader { return &jsonReader{br: br} }

func (r *jsonReader) readRequest(req *Request) error {
	return readJSON(r, req, (*jsonScanner).request)
}

func (r *jsonReader) readResponse(resp *Response) error {
	return readJSON(r, resp, (*jsonScanner).response)
}

// readJSON reads the next value into *v, which it zeroes first.
func readJSON[T any](r *jsonReader, v *T, parse func(*jsonScanner, *T)) error {
	var zero T
	*v = zero
	if r.err != nil {
		return r.err
	}
	c, err := r.skipSpace()
	if err != nil {
		r.err = err
		return err
	}
	if c == '{' {
		buffered, _ := r.br.Peek(r.br.Buffered())
		r.s.reset(buffered)
		if parse(&r.s, v); r.s.ok {
			r.br.Discard(r.s.i) // the bytes are buffered: Discard cannot fail
			return nil
		}
		*v = zero
	}
	if err := r.frame(c); err != nil {
		r.err = err
		return err
	}
	r.s.reset(r.buf)
	if parse(&r.s, v); r.s.ok {
		return nil
	}
	*v = zero
	if err := json.Unmarshal(r.buf, v); err != nil {
		r.err = err
		return err
	}
	return nil
}

// skipSpace consumes whitespace and returns the first byte of the next
// value, unconsumed.
func (r *jsonReader) skipSpace() (byte, error) {
	for {
		b, err := r.br.Peek(1)
		if err != nil {
			return 0, err
		}
		if !isSpace(b[0]) {
			return b[0], nil
		}
		r.br.Discard(1)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// errNotObject refuses a top-level value no message can be: anything but
// an object or null, which json.Decoder decodes into a struct only to
// report a type error.
var errNotObject = errors.New("server: a JSON message must be an object")

// frame consumes the value starting with c into r.buf. An object ends at
// the byte that closes it; the scan stops early, keeping the byte, at one
// that cannot appear where it stands in any JSON value, so a peer sending
// garbage fails now instead of when it closes the stream.
func (r *jsonReader) frame(c byte) error {
	r.buf = r.buf[:0]
	switch c {
	case '{':
	case 'n':
		b, err := r.br.Peek(4)
		if string(b) != "null" {
			if err != nil {
				return unexpectedEOF(err)
			}
			return errNotObject
		}
		r.buf = append(r.buf, b...)
		r.br.Discard(4)
		return nil
	default:
		return errNotObject
	}
	depth, inString, escaped := 0, false, false
	for {
		b, _ := r.br.Peek(r.br.Buffered())
		if len(b) == 0 {
			if _, err := r.br.Peek(1); err != nil {
				return unexpectedEOF(err)
			}
			continue
		}
		for i, c := range b {
			end := false
			switch {
			case inString:
				switch {
				case escaped:
					escaped = false
				case c == '\\':
					escaped = true
				case c == '"':
					inString = false
				case c < 0x20:
					end = true
				}
			case c == '"':
				inString = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
				end = depth == 0
			default:
				end = !jsonValueByte(c)
			}
			if end {
				r.buf = append(r.buf, b[:i+1]...)
				r.br.Discard(i + 1)
				return nil
			}
		}
		r.buf = append(r.buf, b...)
		r.br.Discard(len(b))
	}
}

// jsonValueByte reports whether c may stand outside a string in a JSON
// value: whitespace, a separator, or a byte of a number or a literal.
func jsonValueByte(c byte) bool {
	switch {
	case isSpace(c), c == ',', c == ':', '0' <= c && c <= '9', c == '-', c == '+', c == '.':
		return true
	}
	return strings.IndexByte("eEtrufalsn", c) >= 0
}

// unexpectedEOF is json.Decoder's report of a stream that ends inside a
// value.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// jsonScanner parses one canonical message. Running out of bytes, or the
// first deviation from the canonical shape, clears ok and makes every
// later step a no-op, so a parse is a straight line of steps checked
// once at the end. The array steps collect into scratch the scanner keeps
// across messages and copy out into fresh slices: the query log and the
// engine keep what a message decodes to.
type jsonScanner struct {
	b  []byte
	i  int
	ok bool

	floats []float32
	lens   []int
	nbs    []Neighbor
	ints   []int64
}

func (s *jsonScanner) reset(b []byte) { s.b, s.i, s.ok = b, 0, true }

// requestKeys and responseKeys are the keys a canonical message may
// carry, in the order the encoders write them.
var (
	requestKeys  = []string{"op", "vectors", "query", "k", "queries", "ids"}
	responseKeys = []string{"ok", "error", "ids", "neighbors", "batches", "deleted", "generation"}
)

func (s *jsonScanner) request(req *Request) {
	s.object(requestKeys, func(key string) {
		switch key {
		case "op":
			req.Op = string(s.str())
		case "vectors":
			req.Vectors = lists(s, &s.floats, s.f32)
		case "query":
			req.Query = list(s, &s.floats, s.f32)
		case "k":
			req.K = int(s.int(strconv.IntSize))
		case "queries":
			req.Queries = lists(s, &s.floats, s.f32)
		case "ids":
			req.IDs = list(s, &s.ints, s.int64)
		}
	})
}

func (s *jsonScanner) response(resp *Response) {
	s.object(responseKeys, func(key string) {
		switch key {
		case "ok":
			resp.OK = s.bool()
		case "error":
			resp.Error = string(s.str())
		case "ids":
			resp.IDs = list(s, &s.ints, s.int64)
		case "neighbors":
			resp.Neighbors = list(s, &s.nbs, s.neighbor)
		case "batches":
			resp.Batches = lists(s, &s.nbs, s.neighbor)
		case "deleted":
			resp.Deleted = int(s.int(strconv.IntSize))
		case "generation":
			resp.Generation = s.uint64()
		}
	})
}

func (s *jsonScanner) space() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
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

// expect consumes c after optional whitespace.
func (s *jsonScanner) expect(c byte) {
	if !s.next(c) {
		s.ok = false
	}
}

// object reads one object whose keys are among keys, each at most once
// and in that order, calling field with each key met. A
// key out of order also catches a duplicate, which encoding/json decodes
// into the field again rather than replacing it.
func (s *jsonScanner) object(keys []string, field func(key string)) {
	s.expect('{')
	if s.next('}') {
		return
	}
	at := 0
	for s.ok {
		name := s.str()
		for at < len(keys) && string(name) != keys[at] {
			at++
		}
		if at == len(keys) {
			s.ok = false
			return
		}
		s.expect(':')
		field(keys[at])
		at++
		if s.next('}') {
			return
		}
		s.expect(',')
	}
}

// array reads one JSON array, calling elem once per element.
func (s *jsonScanner) array(elem func()) {
	s.expect('[')
	if s.next(']') {
		return
	}
	for s.ok {
		elem()
		if s.next(']') {
			return
		}
		s.expect(',')
	}
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the input.
func (s *jsonScanner) str() []byte {
	s.expect('"')
	start := s.i
	for s.ok && s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.ok = false
		default:
			s.i++
		}
	}
	s.ok = false
	return nil
}

func (s *jsonScanner) bool() bool {
	if s.next('t') {
		s.lit("rue")
		return true
	}
	s.lit("false")
	return false
}

// skipDigits returns the index of the first byte at or after i in b that
// is not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number reads one number of JSON's grammar and returns its bytes. (One
// the input ends in may go on past it, but it is never the last byte of a
// canonical message: the step after it fails.)
func (s *jsonScanner) number() []byte {
	if !s.ok {
		return nil
	}
	s.space()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := skipDigits(b, i); j > i {
		i = j
	} else {
		s.ok = false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		s.ok = s.ok && j > i+1
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		s.ok = s.ok && j > i
		i = j
	}
	s.i = i
	return b[start:i]
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

// int reads a number as encoding/json decodes one into a signed integer
// of the given size.
func (s *jsonScanner) int(bits int) int64 {
	tok := s.number()
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		s.ok = false
	}
	return n
}

func (s *jsonScanner) uint64() uint64 {
	tok := s.number()
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		s.ok = false
	}
	return n
}

func (s *jsonScanner) int64() int64 { return s.int(64) }

// neighbor reads {"id":…,"dist":…}, keys exactly so and in that order.
func (s *jsonScanner) neighbor() (n Neighbor) {
	s.lit(`{"id":`)
	n.ID = s.int64()
	s.lit(`,"dist":`)
	n.Dist = s.f32()
	s.expect('}')
	return n
}

// list reads an array into a fresh slice, collecting it in *scratch
// first. An empty array is an empty slice, not nil, as encoding/json
// decodes it.
func list[T any](s *jsonScanner, scratch *[]T, elem func() T) []T {
	buf := (*scratch)[:0]
	s.array(func() { buf = append(buf, elem()) })
	*scratch = buf
	if !s.ok {
		return nil
	}
	return append(make([]T, 0, len(buf)), buf...)
}

// lists reads an array of arrays. The lists share one fresh backing
// array, each capped at its own length so that none can grow into the
// next.
func lists[T any](s *jsonScanner, scratch *[]T, elem func() T) [][]T {
	buf, lens := (*scratch)[:0], s.lens[:0]
	s.array(func() {
		n := len(buf)
		s.array(func() { buf = append(buf, elem()) })
		lens = append(lens, len(buf)-n)
	})
	*scratch, s.lens = buf, lens
	if !s.ok {
		return nil
	}
	flat := append(make([]T, 0, len(buf)), buf...)
	out := make([][]T, len(lens))
	for i, n := range lens {
		out[i], flat = flat[:n:n], flat[n:]
	}
	return out
}
