package server

// The binary protocol's connection handler: pipelined, out-of-order, and
// bounded, with no goroutine per request. The connection goroutine reads
// frames and hands each decoded request, over one unbuffered channel, to
// an idle request worker; workers start lazily, at most pipelineDepth of
// them, and live as long as the connection. A worker dispatches its
// request and writes its own response frame under the connection's write
// mutex, so a reply waits only on replies that are already finished,
// never on an unfinished request: a slow search never blocks a ping
// behind it (no head-of-line blocking). When every worker is busy the
// reader blocks on the hand-off and stops reading, so a client that
// outruns the server is throttled by TCP flow control while server memory
// stays O(pipelineDepth × request size).

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"vdtuner/internal/persist"
)

// pipelineDepth bounds the binary requests in flight on one connection:
// it is the number of request workers the connection may start.
const pipelineDepth = 64

// binCall is one decoded request on its way to a worker.
type binCall struct {
	id   uint64
	kind byte
	req  *Request
}

// binWriter is the write side of one binary connection, shared by its
// reader and its workers.
type binWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	err   error        // the first write error; later frames are dropped
	ready atomic.Int32 // finished frames waiting for mu or writing under it
}

// write sends one frame. It flushes unless another finished frame is
// already waiting for the mutex: that writer's flush carries both, so
// back-to-back replies share one flush and none waits on unfinished work.
func (w *binWriter) write(frame []byte) {
	w.ready.Add(1)
	w.mu.Lock()
	if w.err == nil {
		_, w.err = w.bw.Write(frame)
	}
	if w.ready.Add(-1) == 0 && w.err == nil {
		w.err = w.bw.Flush()
	}
	w.mu.Unlock()
}

// handleBinary serves one connection that completed the binary preamble.
func (s *Server) handleBinary(conn net.Conn, cr *connReader, br *bufio.Reader) {
	maxReq := s.opts.maxRequestBytes()
	w := &binWriter{bw: bufio.NewWriter(conn)}
	calls := make(chan binCall)
	var workers sync.WaitGroup
	started := 0
	var frame []byte
	for {
		cr.reset(maxReq + persist.FrameHeaderLen)
		body, err := persist.ReadFrame(br, maxReq, frame)
		if err != nil {
			// Framing violations end the stream: past a torn or corrupt
			// frame there is no resynchronization point. An oversized
			// declared length is answered first (frame id 0: connection-
			// fatal, attributable to no single request since the body was
			// never read) so the client learns why it was dropped.
			var tooBig *persist.FrameTooLargeError
			if errors.As(err, &tooBig) {
				w.write(frameResponse(0, 0, &Response{
					Error: fmt.Sprintf("request frame of %d bytes exceeds the server's %d-byte limit", tooBig.Declared, tooBig.Limit)}))
			}
			break
		}
		frame = body // retain the (possibly grown) buffer for reuse
		id, kind, req, derr := decodeBinRequest(body)
		if id == 0 {
			// Reserved id (or a body too short to carry one): nothing to
			// attribute a reply to — answer fatally and drop.
			msg := "request id 0 is reserved for connection-fatal errors"
			if derr != nil {
				msg = derr.Error()
			}
			w.write(frameResponse(0, 0, &Response{Error: msg}))
			break
		}
		if derr != nil {
			// A malformed payload (or unknown kind) inside a checksummed
			// frame: the stream itself is still in sync, so answer that
			// request and go on.
			w.write(frameResponse(id, 0, &Response{Error: derr.Error()}))
			continue
		}
		c := binCall{id, kind, req}
		select {
		case calls <- c: // an idle worker took it
			continue
		default:
		}
		if started < pipelineDepth {
			started++
			workers.Add(1)
			go func() {
				defer workers.Done()
				for c := range calls {
					w.write(frameResponse(c.id, c.kind, s.dispatch(c.req)))
				}
			}()
		}
		calls <- c // backpressure: with every worker busy, stop reading
	}
	close(calls)
	workers.Wait()
}

// frameResponse encodes a response body and wraps it in a wire frame.
// dispatch recovers its own panics; this guards the encoder. Losing a
// response would wedge the client's pipelined call forever (and a panic
// on a request worker would end the process), so answer something.
func frameResponse(id uint64, reqKind byte, resp *Response) (frame []byte) {
	defer func() {
		if r := recover(); r != nil {
			frame = frameResponse(id, 0, &Response{Error: fmt.Sprintf("internal error encoding response: %v", r)})
		}
	}()
	return persist.AppendFrame(nil, encodeBinResponse(nil, id, reqKind, resp))
}
