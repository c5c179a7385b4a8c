// Package server provides the engine's access layer: a TCP front end over
// a live vdms.Collection speaking two protocols on one port, plus
// matching clients. It mirrors the access/worker split of the paper's
// VDMS architecture (§II-A, "Multiple Components") so that the engine can
// be exercised over a real network path.
//
// # Protocols
//
// Every connection starts in newline-delimited JSON — one Request object
// per message, one Response per reply, strictly in order. A client that
// instead opens with the 8-byte preamble "VDMSBIN1" switches the
// connection to the binary protocol: the hot ops (ping, insert, search,
// searchBatch, delete) framed as length-prefixed CRC32-C-checksummed
// records (internal/persist's framing idiom) with raw little-endian
// float32 payloads, and request pipelining — every frame carries a
// request id, a client may keep many requests in flight on one
// connection, and the server answers each as soon as it completes,
// possibly out of order. In-flight binary requests per connection are
// bounded (Options.PipelineDepth): when the bound is reached the server
// simply stops reading the connection, so a client that outruns the
// server is backpressured by TCP instead of ballooning server memory. See
// codec.go for the exact frame layout, and the README's "Wire protocol"
// section for the negotiation and pipelining semantics.
//
// JSON messages are written by append encoders and their hot fields read
// through typed fast paths (jsonwire.go), with the bytes on the wire
// exactly json.Encoder's: encoding/json stays the reference, framing
// every incoming message and handling whatever is not in the canonical
// shape. A result JSON cannot spell (a distance that overflowed to +Inf)
// is answered with an error naming the op and the value, and the
// connection stays up; the binary protocol carries the value as is.
//
// Both protocols are hardened against misbehaving peers: a single request
// may not exceed Options.MaxRequestBytes on the wire (an oversized
// request gets an error response and the connection is dropped — never an
// unbounded allocation), and with Options.IdleTimeout set, a connection
// that stays silent longer than the timeout is closed, so dead clients
// cannot leak a handler goroutine and file descriptor forever.
//
// # Ops
//
// JSON ops: "ping", "insert", "search", "searchBatch", "delete", "flush",
// "compact", "persist", "stats", "reconfigure", "config". The
// "reconfigure" op applies a full vdms.Config (a flat JSON object keyed by
// knob name; see vdms.Knobs) to the live collection through its online
// reconfiguration path — hot-knob changes swap atomically, cold-knob
// changes run a background migration — and answers with the new config
// generation; "config" reads back the active configuration and its
// generation. The "searchBatch" op answers a whole query batch in one
// round trip; the server fans it across the collection's configured
// queryNode parallelism under every shard's read lock (acquired in fixed
// order), so the batch observes one consistent snapshot of the whole
// segment lifecycle. The "compact" op runs segment compaction to
// quiescence on every shard (deletes trigger it in the background anyway;
// the explicit op exists for operational control). The "persist" op
// checkpoints a durable collection — per-shard snapshots to disk,
// per-shard WALs truncated — and is a no-op on a memory-only one; the
// "stats" reply reports the aggregate durability position (WALBytes,
// LastCheckpointLSN, WALLastLSN) plus a per-shard breakdown (Shards:
// rows, segment states, tombstones, WAL position of every shard, in
// shard order).
//
// Connections are handled on one goroutine each (plus a bounded worker
// pool per pipelined binary connection), and the underlying collection is
// safe for concurrent use, so any number of clients may mix reads and
// writes across both protocols. A panicking request handler answers that
// request with an error response instead of taking down the process.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/vdms"
)

// Request is one client command. Its vector fields, like Response's
// neighbor lists, have the plain slice types beneath a JSON decoding fast
// path, so values of the plain types assign to and from them.
type Request struct {
	// Op is one of "ping", "insert", "search", "searchBatch", "delete",
	// "flush", "compact", "persist", "stats", "reconfigure", "config".
	Op string `json:"op"`
	// Vectors carries the rows for "insert".
	Vectors jsonRows `json:"vectors,omitempty"`
	// Query and K parameterize "search"; K is shared with "searchBatch".
	Query jsonFloats `json:"query,omitempty"`
	K     int        `json:"k,omitempty"`
	// Queries carries the batch for "searchBatch". The server fans the
	// batch across the collection's configured parallelism and answers
	// all queries in one round trip.
	Queries jsonRows `json:"queries,omitempty"`
	// IDs carries the ids for "delete".
	IDs []int64 `json:"ids,omitempty"`
	// Config carries the target configuration for "reconfigure": a
	// vdms.Config in its JSON form. It is decoded at dispatch, so a
	// configuration the decoder refuses (an unknown knob, a fraction for an
	// integer one) is answered with an error like any other bad argument
	// instead of ending the connection as an undecodable request does.
	Config json.RawMessage `json:"config,omitempty"`
}

// Neighbor is one search hit on the wire: the engine's own result type,
// so dispatch hands search results to the codecs without a copy.
type Neighbor = linalg.Neighbor

// Response is the server's reply to one Request.
type Response struct {
	OK        bool          `json:"ok"`
	Error     string        `json:"error,omitempty"`
	IDs       []int64       `json:"ids,omitempty"`
	Neighbors jsonNeighbors `json:"neighbors,omitempty"`
	// Batches[i] answers Queries[i] of a "searchBatch" request.
	Batches jsonBatches           `json:"batches,omitempty"`
	Stats   *vdms.CollectionStats `json:"stats,omitempty"`
	// Deleted is the number of ids newly tombstoned by "delete". Never
	// omitempty: a delete that tombstoned nothing legitimately answers 0,
	// and the zero must be on the wire, not inferred from absence.
	Deleted int `json:"deleted"`
	// Config answers a "config" request with the active configuration.
	Config *vdms.Config `json:"config,omitempty"`
	// Generation is the config generation after "reconfigure" (or the
	// active one for "config"). Never omitempty: generation 0 is the
	// legitimate state of every fresh collection.
	Generation uint64 `json:"generation"`
}

// Options hardens and tunes the access layer. The zero value is the
// library default: a generous request cap, no idle timeout (so in-process
// tests and trusted links behave exactly as before), and a pipeline depth
// of 64. vdmsd turns the idle timeout on.
type Options struct {
	// MaxRequestBytes caps the wire size of one request on both
	// protocols: the declared frame length on the binary protocol, and
	// the bytes a single JSON message may pull off the socket. An
	// oversized request gets an error response and the connection is
	// dropped — never an unbounded allocation. 0 means 64 MiB.
	MaxRequestBytes int
	// IdleTimeout closes a connection when no request data arrives for
	// this long, so dead clients cannot leak a handler goroutine and file
	// descriptor forever. 0 means no timeout.
	IdleTimeout time.Duration
	// PipelineDepth bounds the in-flight binary requests per connection
	// (being served or queued for writing). When the bound is hit the
	// server stops reading that connection until responses drain —
	// backpressure instead of unbounded buffering. 0 means 64.
	PipelineDepth int
}

const (
	defaultMaxRequestBytes = 64 << 20
	defaultPipelineDepth   = 64
)

func (o Options) maxRequestBytes() int {
	if o.MaxRequestBytes <= 0 {
		return defaultMaxRequestBytes
	}
	return o.MaxRequestBytes
}

func (o Options) pipelineDepth() int {
	if o.PipelineDepth <= 0 {
		return defaultPipelineDepth
	}
	return o.PipelineDepth
}

// Server exposes one collection over TCP.
type Server struct {
	coll *vdms.Collection
	ln   net.Listener
	opts Options

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// qlog is the bounded window of recently served queries, recorded
	// when EnableQueryLog was called; the in-process tuning daemon drains
	// it to observe the live workload.
	qmu   sync.Mutex
	qlog  [][]float32
	qcap  int
	qhead int
	qfull bool
}

// EnableQueryLog starts recording served search queries into a bounded
// ring of the given capacity (the newest capacity queries are kept). The
// tuning daemon drains the ring with TakeQueries; recording references
// the decoded query slices, which the server never reuses, so it costs no
// copies on the serving path.
func (s *Server) EnableQueryLog(capacity int) {
	if capacity <= 0 {
		capacity = 4096
	}
	s.qmu.Lock()
	s.qlog = make([][]float32, 0, capacity)
	s.qcap = capacity
	s.qhead = 0
	s.qfull = false
	s.qmu.Unlock()
}

// recordQueries appends served queries to the ring, if enabled.
func (s *Server) recordQueries(qs ...[]float32) {
	s.qmu.Lock()
	if s.qcap > 0 {
		for _, q := range qs {
			if len(s.qlog) < s.qcap {
				s.qlog = append(s.qlog, q)
			} else {
				s.qlog[s.qhead] = q
				s.qhead = (s.qhead + 1) % s.qcap
				s.qfull = true
			}
		}
	}
	s.qmu.Unlock()
}

// TakeQueries drains and returns the recorded query window (oldest
// first). It returns nil when the log is disabled or empty.
func (s *Server) TakeQueries() [][]float32 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.qlog) == 0 {
		return nil
	}
	out := make([][]float32, 0, len(s.qlog))
	if s.qfull {
		out = append(out, s.qlog[s.qhead:]...)
		out = append(out, s.qlog[:s.qhead]...)
	} else {
		out = append(out, s.qlog...)
	}
	s.qlog = s.qlog[:0]
	s.qhead = 0
	s.qfull = false
	return out
}

// New starts a server for coll listening on addr (e.g. "127.0.0.1:0")
// with default Options.
func New(coll *vdms.Collection, addr string) (*Server, error) {
	return NewWithOptions(coll, addr, Options{})
}

// NewWithOptions starts a server with explicit access-layer limits.
func NewWithOptions(coll *vdms.Collection, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{coll: coll, ln: ln, opts: opts, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection, and waits for handlers.
// The underlying collection is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// errRequestTooLarge is the sentinel a connReader returns when one
// message exhausts its byte budget. It surfaces from json.Decoder (which
// returns reader errors verbatim) and marks the connection for an
// apologetic error response before the drop.
var errRequestTooLarge = errors.New("server: request exceeds the per-request byte limit")

// connReader is the read side of one connection: it arms the idle
// deadline before every read from the socket and enforces the
// per-message byte budget, which the protocol loops reset before each
// message. Bytes already buffered upstream (bufio read-ahead) were
// counted when they were read, so the budget bounds what any single
// message can pull into memory, not exact message length.
type connReader struct {
	conn   net.Conn
	idle   time.Duration
	budget int64
}

func (r *connReader) reset(budget int) { r.budget = int64(budget) }

func (r *connReader) Read(p []byte) (int, error) {
	if r.budget <= 0 {
		return 0, errRequestTooLarge
	}
	if int64(len(p)) > r.budget {
		p = p[:r.budget]
	}
	if r.idle > 0 {
		r.conn.SetReadDeadline(time.Now().Add(r.idle))
	}
	n, err := r.conn.Read(p)
	r.budget -= int64(n)
	return n, err
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		// A panic that escapes dispatch's own recovery (e.g. inside the
		// codec) drops this connection only, never the whole process.
		recover()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	cr := &connReader{conn: conn, idle: s.opts.IdleTimeout}
	cr.reset(s.opts.maxRequestBytes())
	br := bufio.NewReader(cr)
	// Negotiate the protocol on the first byte: the binary preamble's 'V'
	// can never begin a JSON value. A preamble that starts like binary but
	// doesn't match is garbage from something speaking neither protocol —
	// drop it without guessing at a reply encoding.
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == binPreamble[0] {
		var pre [len(binPreamble)]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil || string(pre[:]) != binPreamble {
			return
		}
		s.handleBinary(conn, cr, br)
		return
	}
	s.handleJSON(conn, cr, br)
}

// handleJSON serves the newline-delimited JSON protocol: strictly ordered
// request/response pairs, exactly as every pre-binary client expects.
func (s *Server) handleJSON(conn net.Conn, cr *connReader, br *bufio.Reader) {
	dec := json.NewDecoder(br)
	var out []byte // the reply buffer, reused across messages
	for {
		cr.reset(s.opts.maxRequestBytes())
		var req Request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, errRequestTooLarge) {
				// Tell the client why before dropping: the stream is mid-
				// message and cannot be resynchronized. An error-only
				// response always encodes.
				out, _ = appendResponseJSON(out[:0], &Response{Error: fmt.Sprintf(
					"request exceeds the server's %d-byte limit", s.opts.maxRequestBytes())})
				conn.Write(out) // best effort: the connection is dropped either way
			}
			return // EOF, timeout, or broken stream: drop the connection
		}
		resp := s.dispatch(&req)
		var err error
		if out, err = appendResponseJSON(out[:0], resp); err != nil {
			// A result JSON cannot spell, such as a distance that
			// overflowed to +Inf: answer this request with the reason and
			// keep the connection. (The binary codec carries it as is.)
			out, _ = appendResponseJSON(out[:0], &Response{Error: fmt.Sprintf(
				"%s: the result cannot be sent as JSON: %v", req.Op, err)})
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// dispatch answers one request. A panic while serving it (a malformed
// request slipping past validation, an engine bug) is converted into an
// error response so one bad request cannot crash the server.
func (s *Server) dispatch(req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Error: fmt.Sprintf("internal error serving %q: %v", req.Op, r)}
		}
	}()
	switch req.Op {
	case "ping":
		return &Response{OK: true}
	case "insert":
		if len(req.Vectors) == 0 {
			return &Response{Error: "insert: no vectors"}
		}
		ids, err := s.coll.Insert(req.Vectors)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, IDs: ids}
	case "search":
		if req.K < 1 {
			return &Response{Error: "search: k must be >= 1"}
		}
		var st index.Stats
		res, err := s.coll.Search(req.Query, req.K, &st)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		s.recordQueries(req.Query)
		return &Response{OK: true, Neighbors: res}
	case "searchBatch":
		if req.K < 1 {
			return &Response{Error: "searchBatch: k must be >= 1"}
		}
		var st index.Stats
		res, err := s.coll.SearchBatch(req.Queries, req.K, &st)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		s.recordQueries(req.Queries...)
		return &Response{OK: true, Batches: res}
	case "delete":
		n, err := s.coll.Delete(req.IDs)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Deleted: n}
	case "flush":
		if err := s.coll.Flush(); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case "compact":
		if err := s.coll.Compact(); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case "persist":
		if err := s.coll.Checkpoint(); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case "stats":
		st := s.coll.Stats()
		return &Response{OK: true, Stats: &st}
	case "reconfigure":
		if req.Config == nil {
			return &Response{Error: "reconfigure: missing config"}
		}
		var cfg vdms.Config
		if err := json.Unmarshal(req.Config, &cfg); err != nil {
			return &Response{Error: "reconfigure: " + err.Error()}
		}
		gen, err := s.coll.Reconfigure(cfg)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Generation: gen}
	case "config":
		cfg := s.coll.Config()
		return &Response{OK: true, Config: &cfg, Generation: s.coll.Stats().ConfigGeneration}
	default:
		return &Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// hotOps declares once the five ops both protocols carry, over whichever
// round trip its owner supplies; Client and BinClient embed it.
type hotOps struct {
	call func(*Request) (*Response, error)
}

// Ping checks liveness.
func (h hotOps) Ping() error {
	_, err := h.call(&Request{Op: "ping"})
	return err
}

// Insert sends rows and returns their assigned ids.
func (h hotOps) Insert(vecs [][]float32) ([]int64, error) {
	resp, err := h.call(&Request{Op: "insert", Vectors: vecs})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Search returns the k nearest neighbors of q.
func (h hotOps) Search(q []float32, k int) ([]Neighbor, error) {
	resp, err := h.call(&Request{Op: "search", Query: q, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// SearchBatch answers every query in one round trip; result i corresponds
// to queries[i]. The server fans the batch across its configured
// parallelism, so a batched call is both cheaper on the wire and faster to
// serve than k sequential Searches. On a BinClient, concurrent SearchBatch
// calls pipeline on the one connection.
func (h hotOps) SearchBatch(queries [][]float32, k int) ([][]Neighbor, error) {
	resp, err := h.call(&Request{Op: "searchBatch", Queries: queries, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Batches, nil
}

// Delete tombstones ids on the server and reports how many were new.
func (h hotOps) Delete(ids []int64) (int, error) {
	resp, err := h.call(&Request{Op: "delete", IDs: ids})
	if err != nil {
		return 0, err
	}
	return resp.Deleted, nil
}

// Client is a synchronous connection to a Server. It is safe for
// concurrent use; requests are serialized on the single connection.
type Client struct {
	hotOps
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	buf  []byte // request scratch, reused across calls; guarded by mu
}

// Dial connects to a server address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn))}
	c.hotOps.call = c.call
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.buf, err = appendRequestJSON(c.buf[:0], req); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return &resp, errors.New(resp.Error)
	}
	return &resp, nil
}

// Flush seals and waits for index builds on the server.
func (c *Client) Flush() error {
	_, err := c.call(&Request{Op: "flush"})
	return err
}

// Stats fetches the collection snapshot.
func (c *Client) Stats() (*vdms.CollectionStats, error) {
	resp, err := c.call(&Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Reconfigure applies cfg to the server's collection online and returns
// the new config generation. Hot-knob changes swap atomically; cold-knob
// changes (index type or build parameters, segment sizing, shard count)
// run a background migration — the call returns when the new shape
// serves, with reads and writes admitted throughout.
func (c *Client) Reconfigure(cfg vdms.Config) (uint64, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(&Request{Op: "reconfigure", Config: raw})
	if err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

// Config fetches the collection's active configuration and generation.
func (c *Client) Config() (*vdms.Config, uint64, error) {
	resp, err := c.call(&Request{Op: "config"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Config, resp.Generation, nil
}
