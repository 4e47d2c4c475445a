// Package frontend runs the connection lifecycle of the database's network
// front ends: beliefserver (internal/server) and beliefrouter
// (internal/router) both serve the wire protocol through one Service, and
// supply only their handshake answer and their per-request dispatch.
//
// # Request handling
//
// A connection opens with the wire handshake (Hello/ServerHello) and then
// carries requests answered strictly in order, so clients may pipeline.
// Request-level failures (a bad query, a batch conflict) are answered with
// an Error frame and the connection stays usable; protocol-level failures
// (a torn frame, a checksum mismatch, an oversized frame, an unexpected
// opcode) poison the stream and close the connection — after an Error
// frame describing the reason, when the stream is still writable. A
// panicking dispatch is answered with an internal-error frame and ends its
// own connection only.
//
// # Shutdown ordering
//
// Shutdown closes the listener (no new connections), then interrupts every
// connection's pending read; a handler mid-request finishes writing its
// response before exiting, so no accepted request is abandoned. Only after
// every handler has returned — or the context expires and the connections
// are force-closed — should the caller release what the dispatch uses (the
// database, the shard connections). See the Network service section of
// DESIGN.md.
package frontend

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"beliefdb/internal/query"
	"beliefdb/internal/wire"
)

// RowChunkSize bounds how many result rows travel in one RowChunk frame.
// Chunking keeps every frame small regardless of result size, so a slow
// client never forces a front end to buffer a whole result in one frame.
// Chunks are additionally bounded by encoded bytes (see WriteResult), so
// wide rows cannot push a frame past the wire limit either.
const RowChunkSize = 256

// Dispatch answers one request. Reads and writes are buffered: w writes
// into bw, which the request loop flushes after each response, so a
// dispatch that streams indefinitely (a WAL follow) flushes bw itself.
// The returned error reports a failure to write the response, or a request
// that ends the connection; request-level failures are answered with an
// Error frame and return nil.
type Dispatch func(w *wire.Writer, bw *bufio.Writer, req wire.Msg) error

// A Service serves the wire protocol for one front end. Create with New,
// set the configuration fields, start with Serve, stop with Shutdown. The
// configuration must not change once Serve has been called.
type Service struct {
	// Hello is the ServerHello every handshake is answered with.
	Hello wire.Msg
	// MaxFrame bounds the payload of a single protocol frame in both
	// directions.
	MaxFrame int
	// MaxConns bounds concurrently served connections (0 = unbounded). A
	// slot is taken before Accept, so at the bound the service stops
	// accepting and excess dials queue in the OS listen backlog —
	// backpressure instead of unbounded handler goroutines.
	MaxConns int
	// ReqTimeout, when positive, is the write deadline of each response,
	// so a client that stops draining cannot pin its handler forever.
	ReqTimeout time.Duration
	// Logf, when non-nil, receives one line per recovered panic.
	Logf func(format string, args ...interface{})

	dispatch Dispatch
	stop     chan struct{} // closed by Shutdown; unblocks a gated accept loop

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool

	handlers sync.WaitGroup
}

// New returns a service that answers requests with dispatch.
func New(dispatch Dispatch) *Service {
	return &Service{
		MaxFrame: wire.DefaultMaxFrame,
		dispatch: dispatch,
		stop:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener failure. Each connection is handled on its own goroutine.
func (s *Service) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: Serve after Shutdown")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	var sem chan struct{}
	if s.MaxConns > 0 {
		sem = make(chan struct{}, s.MaxConns)
	}
	release := func() {
		if sem != nil {
			<-sem
		}
	}
	for {
		// The accept gate is taken before Accept: at the connection bound
		// the loop parks here and excess dials wait in the listen backlog.
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-s.stop:
				return nil
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			release()
			if s.ShuttingDown() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if !s.track(conn) {
			conn.Close() // raced Shutdown; refuse quietly
			release()
			continue
		}
		go func() {
			defer release()
			defer s.handlers.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers a connection and takes its handler slot in the wait
// group. The Add happens under the same mutex that Shutdown takes before
// waiting, so Add is strictly ordered against handlers.Wait — an Add
// outside the lock could land while a draining Shutdown's Wait sits at
// zero, the documented WaitGroup misuse panic.
func (s *Service) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	return true
}

func (s *Service) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// ShuttingDown reports whether Shutdown has been called.
func (s *Service) ShuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// Stopping is closed when Shutdown begins, for long-running dispatches (a
// WAL follow stream) to select on.
func (s *Service) Stopping() <-chan struct{} { return s.stop }

// Shutdown stops the service gracefully: close the listener, interrupt
// every connection's pending read (a handler mid-request still writes its
// response), and wait for the handlers to drain. If ctx expires first the
// remaining connections are force-closed before Shutdown returns ctx's
// error. Nothing the dispatch uses is touched either way — releasing it is
// the caller's next step, after Shutdown returns.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutdown {
		close(s.stop)
	}
	s.shutdown = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// Wake handlers blocked between requests: an expired read deadline
	// fails the pending frame read, and the handler sees shutdown and
	// exits. Handlers inside a request keep running — only their next read
	// fails — so accepted requests drain.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handle runs one connection: handshake, then the request loop. Reads and
// writes go through bufio so a streamed response costs one syscall per
// flush, not one per frame; every response is flushed before the next read.
func (s *Service) handle(conn net.Conn) {
	bw := bufio.NewWriter(conn)
	r := wire.NewReader(bufio.NewReader(conn), s.MaxFrame)
	w := wire.NewWriter(bw, s.MaxFrame)

	hello, err := r.Read()
	if err != nil {
		s.abort(w, bw, err)
		return
	}
	if hello.Kind != wire.KindHello {
		w.Write(wire.Errorf("server: expected Hello, got %s", hello.Kind))
		bw.Flush()
		return
	}
	if hello.Version != wire.ProtoVersion {
		w.Write(wire.Errorf("server: protocol version %d not supported (server speaks %d)",
			hello.Version, wire.ProtoVersion))
		bw.Flush()
		return
	}
	if err := w.Write(s.Hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	for {
		req, err := r.Read()
		if err != nil {
			// Clean close, a poisoned stream, or the shutdown poke — none
			// leave anything answerable.
			s.abort(w, bw, err)
			return
		}
		// A follow request dedicates the connection to a stream that runs
		// until the peer goes away or the service shuts down: no response
		// deadline, and no further request to read.
		stream := req.Kind == wire.KindFollowWAL
		if s.ReqTimeout > 0 && !stream {
			conn.SetWriteDeadline(time.Now().Add(s.ReqTimeout))
		}
		if err := s.serveOne(w, bw, req); err != nil || stream {
			// The stream is done for — but any Error frame explaining why
			// (an unexpected opcode, a recovered panic) is still sitting in
			// the buffer, and the promise is to describe the drop when the
			// stream is writable.
			bw.Flush()
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if s.ReqTimeout > 0 {
			conn.SetWriteDeadline(time.Time{})
		}
		if s.ShuttingDown() {
			return // drained the request that was already in flight
		}
	}
}

// serveOne dispatches one request. A panicking dispatch is converted into
// an internal-error response and that connection's demise — the process,
// and every other connection, keeps serving.
func (s *Service) serveOne(w *wire.Writer, bw *bufio.Writer, req wire.Msg) (err error) {
	defer func() {
		if p := recover(); p != nil {
			w.Write(wire.ErrorMsg(wire.CodeInternal, fmt.Sprintf("server: internal error serving %s: %v", req.Kind, p)))
			err = fmt.Errorf("server: panic serving %s: %v", req.Kind, p)
			if s.Logf != nil {
				s.Logf("server: recovered panic serving %s: %v", req.Kind, p)
			}
		}
	}()
	return s.dispatch(w, bw, req)
}

// abort reports a protocol-level failure on the way out when the stream
// may still be writable and the failure is worth describing (not a clean
// EOF, not the shutdown poke).
func (s *Service) abort(w *wire.Writer, bw *bufio.Writer, err error) {
	if err == io.EOF || s.ShuttingDown() {
		return
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return
	}
	w.Write(wire.Errorf("server: dropping connection: %v", err))
	bw.Flush()
}

// WriteResult streams one query result: a RowHeader and chunked rows when
// the result has columns, then ResultEnd carrying the (epoch, pos)
// watermark. Chunks are bounded both by row count and by encoded bytes, so
// wide rows cannot grow a frame past the wire limit and kill the
// connection mid-stream; a single row that cannot fit any frame is
// answered with an in-stream Error (which the client treats as the
// request's failure) instead of a dead connection.
func (s *Service) WriteResult(w *wire.Writer, res *query.Result, epoch, pos uint64) error {
	affected := uint64(0)
	if res != nil {
		affected = uint64(res.Affected)
	}
	if res != nil && len(res.Columns) > 0 {
		if err := w.Write(wire.Msg{Kind: wire.KindRowHeader, Cols: res.Columns}); err != nil {
			return err
		}
		// Leave generous headroom under the frame limit for the chunk's
		// own framing and count prefixes.
		budget := s.MaxFrame - s.MaxFrame/8
		start, bytes := 0, 0
		flush := func(end int) error {
			if end == start {
				return nil
			}
			err := w.Write(wire.Msg{Kind: wire.KindRowChunk, Rows: res.Rows[start:end]})
			start, bytes = end, 0
			return err
		}
		for i, row := range res.Rows {
			sz := wire.RowSize(row)
			if sz > budget {
				return w.Write(wire.Errorf("server: result row %d encodes to %d bytes, beyond the %d-byte frame limit", i, sz, s.MaxFrame))
			}
			if bytes+sz > budget {
				if err := flush(i); err != nil {
					return err
				}
			}
			bytes += sz
			if i-start+1 >= RowChunkSize {
				if err := flush(i + 1); err != nil {
					return err
				}
			}
		}
		if err := flush(len(res.Rows)); err != nil {
			return err
		}
	}
	return w.Write(wire.Msg{Kind: wire.KindResultEnd, Affected: affected, Epoch: epoch, Pos: pos})
}
