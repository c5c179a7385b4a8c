package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"vdtuner/internal/persist"
)

// BinClient is a pipelined connection speaking the binary protocol. It is
// safe for concurrent use, and unlike Client it does not serialize
// callers: every in-flight call gets a distinct request id, writes are
// interleaved on the single connection, and a background reader matches
// responses — which the server may send out of order — back to their
// callers. N goroutines sharing one BinClient therefore keep N requests
// pipelined on one TCP connection with no head-of-line blocking. It
// carries the hot ops only (hotOps); vectors travel raw, 4 bytes per
// float.
type BinClient struct {
	hotOps
	conn net.Conn

	// Write side: callers serialize frame writes only (not round trips).
	wmu  sync.Mutex
	bw   *bufio.Writer
	body []byte // reusable request-body scratch, guarded by wmu
	wbuf []byte // reusable frame scratch, guarded by wmu

	// Pending-call registry, shared with the reader goroutine.
	mu      sync.Mutex
	pending map[uint64]chan binReply
	nextID  uint64
	err     error // terminal: set once, fails every later call
}

type binReply struct {
	resp *Response
	err  error
}

// maxResponseBytes caps what the client will allocate for one response
// frame; a response can carry a full batch of neighbor lists, so the
// bound is generous.
const maxResponseBytes = 1 << 30

// DialBinary connects to a server address and negotiates the binary
// protocol by sending the preamble.
func DialBinary(addr string) (*BinClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	if _, err := bw.WriteString(binPreamble); err != nil {
		conn.Close()
		return nil, err
	}
	c := &BinClient{conn: conn, bw: bw, pending: map[uint64]chan binReply{}}
	c.hotOps.call = c.call
	go c.readLoop()
	return c, nil
}

// Close closes the connection; in-flight calls fail.
func (c *BinClient) Close() error {
	err := c.conn.Close()
	c.fail(errors.New("server: binary client closed"))
	return err
}

// fail terminates the client: every pending call and every later call
// returns err (the first one wins).
func (c *BinClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- binReply{err: c.err}
	}
	c.mu.Unlock()
}

// readLoop drains response frames and routes each to its caller by id.
// An id-0 frame is a connection-fatal server error (e.g. an oversized
// request whose sender the server could not identify).
func (c *BinClient) readLoop() {
	br := bufio.NewReader(c.conn)
	var buf []byte
	for {
		body, err := persist.ReadFrame(br, maxResponseBytes, buf)
		if err != nil {
			c.fail(fmt.Errorf("server: binary connection lost: %w", err))
			return
		}
		buf = body
		id, resp, err := decodeBinResponse(body)
		if err != nil {
			c.fail(err)
			return
		}
		if id == 0 {
			c.fail(fmt.Errorf("server: connection-fatal server error: %s", resp.Error))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- binReply{resp: resp}
		}
	}
}

// call pipelines one request: register, write the frame, await the
// matched response.
func (c *BinClient) call(req *Request) (*Response, error) {
	ch := make(chan binReply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	body, err := encodeBinRequest(c.body[:0], id, req)
	if err == nil {
		c.body = body
		c.wbuf = persist.AppendFrame(c.wbuf[:0], body)
		if _, werr := c.bw.Write(c.wbuf); werr != nil {
			err = werr
		} else {
			err = c.bw.Flush()
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	reply := <-ch
	if reply.err != nil {
		return nil, reply.err
	}
	if !reply.resp.OK {
		return reply.resp, errors.New(reply.resp.Error)
	}
	return reply.resp, nil
}
