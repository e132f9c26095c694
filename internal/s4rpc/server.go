package s4rpc

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/core"
	"s4/internal/types"
	"s4/internal/xdr"
)

// Keyring maps principals to their session keys. The drive owner loads
// it at startup; it lives inside the security perimeter.
type Keyring struct {
	mu      sync.RWMutex
	clients map[types.ClientID][]byte
	admin   []byte
}

// NewKeyring creates an empty keyring with the given administrator key.
func NewKeyring(adminKey []byte) *Keyring {
	return &Keyring{clients: make(map[types.ClientID][]byte), admin: adminKey}
}

// AddClient registers a client machine's secret.
func (k *Keyring) AddClient(c types.ClientID, key []byte) {
	k.mu.Lock()
	k.clients[c] = append([]byte(nil), key...)
	k.mu.Unlock()
}

// AddClients registers every client of spec, a comma-separated list of
// id=key pairs (the daemons' -clientkey flag); empty entries are
// skipped. It stops at the first malformed entry: one without '=', or
// whose id is not a 32-bit unsigned number.
func (k *Keyring) AddClients(spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		if pair == "" {
			continue
		}
		id, key, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("s4rpc: bad client entry %q (want id=key): %w", pair, types.ErrInval)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return fmt.Errorf("s4rpc: bad client id %q: %w", id, types.ErrInval)
		}
		k.AddClient(types.ClientID(n), []byte(key))
	}
	return nil
}

func (k *Keyring) verify(h *Hello, nonce []byte) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	key := k.clients[h.Client]
	if h.Admin {
		key = k.admin
	}
	if len(key) == 0 {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(nonce)
	return hmac.Equal(mac.Sum(nil), h.MAC)
}

// busyRetryAfter is the wait hint attached to a shed (ErrBusy) reply.
const busyRetryAfter = 20 * time.Millisecond

// The wire codes both ends compare against on every exchange.
var (
	errnoBusy       = core.Errno(types.ErrBusy)
	errnoThrottled  = core.Errno(types.ErrThrottled)
	errnoAuthFailed = core.Errno(types.ErrAuthFailed)
)

// defaultMaxSessions bounds the duplicate-reply cache (one last-reply
// entry per live session).
const defaultMaxSessions = 4096

// Server exposes a Handler — a core.Drive through Dispatch, or a shard
// router — over TCP. Requests from all connections are dispatched on a
// bounded worker pool (SetWorkers) with a bounded queue
// (SetQueueDepth): a flood of connections cannot spawn an unbounded
// number of drive operations, and once the queue is full
// further requests are shed with a retryable ErrBusy instead of parked.
// Per-frame I/O deadlines (SetIOTimeout) evict stalled and slowloris
// connections, and a per-session duplicate-reply cache gives retrying
// clients exactly-once execution (see proto.go).
type Server struct {
	handler Handler
	keys    *Keyring

	mu        sync.Mutex
	ln        net.Listener
	lnClosed  bool
	conns     map[net.Conn]struct{}
	shutdown  bool
	workers   int
	queue     int
	connLimit int
	ioTimeout time.Duration
	tasks     chan task
	serving   bool

	draining atomic.Bool

	sessMu      sync.Mutex
	sessions    map[sessionKey]*session
	maxSessions int

	done     chan struct{} // closed by Close: unblocks queued submitters
	stopped  chan struct{} // closed when Serve has fully torn down
	workerWG sync.WaitGroup

	// testDispatchDelay, when set (tests only), runs before each
	// dispatched request so tests can hold worker slots deterministically.
	testDispatchDelay func(op types.Op)
}

type task struct {
	cred types.Cred
	req  *Request
	resp chan *Response
}

// sessionKey identifies one client session across reconnects. The
// ClientID component comes from the authenticated handshake, so one
// principal can never read or poison another principal's reply cache.
type sessionKey struct {
	client  types.ClientID
	session uint64
}

// session is the duplicate-suppression state for one (Client, Session)
// pair: the last executed request ID and its reply. Because the client
// issues one request at a time per session, caching a single reply
// suffices — request n's arrival proves the reply to n-1 was received,
// which is the cache's eviction rule.
type session struct {
	mu       sync.Mutex
	lastID   uint64
	lastResp *Response
	lastUsed atomic.Int64 // unix nanos, for registry eviction
}

// NewServer serves a drive with the given keyring.
func NewServer(drv Backend, keys *Keyring) *Server { return NewHandlerServer(Dispatch(drv), keys) }

// NewHandlerServer serves whatever h stands for — a drive, or a shard
// router over remote drives — with the given keyring.
func NewHandlerServer(h Handler, keys *Keyring) *Server {
	return &Server{
		handler: h, keys: keys,
		conns:       make(map[net.Conn]struct{}),
		sessions:    make(map[sessionKey]*session),
		maxSessions: defaultMaxSessions,
		done:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
}

// SetWorkers bounds the request-dispatch pool. Call before Serve;
// n <= 0 (the default) selects GOMAXPROCS.
func (s *Server) SetWorkers(n int) {
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
}

// SetQueueDepth bounds how many accepted requests may wait for a free
// worker before further requests are shed with ErrBusy. Call before
// Serve; n <= 0 (the default) selects 4x the worker count.
func (s *Server) SetQueueDepth(n int) {
	s.mu.Lock()
	s.queue = n
	s.mu.Unlock()
}

// SetConnLimit caps concurrent connections; over-limit connections are
// closed before the handshake (clients see a retryable connect
// failure). Zero (the default) means unlimited. Call before Serve.
func (s *Server) SetConnLimit(n int) {
	s.mu.Lock()
	s.connLimit = n
	s.mu.Unlock()
}

// SetIOTimeout sets the per-frame I/O deadline: the handshake must
// complete within it, a started request frame must finish arriving
// within it, and a reply write must complete within it. An idle
// session between frames is not evicted. Zero (the default) disables
// deadlines. Call before Serve.
func (s *Server) SetIOTimeout(d time.Duration) {
	s.mu.Lock()
	s.ioTimeout = d
	s.mu.Unlock()
}

// Serve accepts connections on ln until Close. It blocks, and does not
// return until every connection handler and pool worker has exited —
// shutdown leaves no goroutines behind.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.serving = true
	n := s.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q := s.queue
	if q <= 0 {
		q = 4 * n
	}
	s.tasks = make(chan task, q)
	for i := 0; i < n; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.mu.Unlock()

	var connWG sync.WaitGroup
	var retErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.shutdown
			s.mu.Unlock()
			if !done && !s.draining.Load() {
				retErr = err
			}
			break
		}
		s.mu.Lock()
		if s.shutdown || s.draining.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			break
		}
		if s.connLimit > 0 && len(s.conns) >= s.connLimit {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			s.serveConn(conn)
		}()
	}
	connWG.Wait()
	close(s.tasks)
	s.workerWG.Wait()
	close(s.stopped)
	return retErr
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		if s.testDispatchDelay != nil {
			s.testDispatchDelay(t.req.Op)
		}
		t.resp <- s.dispatch(t.cred, t.req)
	}
}

// submit runs one request on the pool and waits for its reply on the
// connection's reply channel (one request is in flight per connection,
// so one channel serves them all). When the worker queue is full the
// request is shed with a retryable ErrBusy and a retry-after hint — it
// did not execute, so the client may safely reissue it. The second
// return value reports whether the request executed (only executed
// requests enter the duplicate-reply cache).
func (s *Server) submit(cred types.Cred, req *Request, reply chan *Response) (*Response, bool) {
	select {
	case s.tasks <- task{cred: cred, req: req, resp: reply}:
		return <-reply, true
	case <-s.done:
		return &Response{Op: req.Op, ID: req.ID, Errno: core.Errno(types.ErrDriveStopped)}, false
	default:
		return &Response{Op: req.Op, ID: req.ID, Errno: errnoBusy, RetryAfter: busyRetryAfter}, false
	}
}

// lookupSession finds or creates the duplicate-suppression state for
// one handshake. A full registry evicts the least recently used
// session; the cost of a wrong eviction is bounded — at worst, one
// retransmission from a session idle longer than every other live
// session re-executes instead of hitting the cache.
func (s *Server) lookupSession(c types.ClientID, id uint64) *session {
	if id == 0 {
		return nil
	}
	key := sessionKey{client: c, session: id}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[key]; ok {
		sess.lastUsed.Store(time.Now().UnixNano())
		return sess
	}
	if len(s.sessions) >= s.maxSessions {
		var oldestKey sessionKey
		oldest := int64(math.MaxInt64)
		for k, v := range s.sessions {
			if u := v.lastUsed.Load(); u < oldest {
				oldest, oldestKey = u, k
			}
		}
		delete(s.sessions, oldestKey)
	}
	sess := &session{}
	sess.lastUsed.Store(time.Now().UnixNano())
	s.sessions[key] = sess
	return sess
}

// Close stops the listener, drops every connection immediately, and —
// if Serve is running — waits for its handlers and workers to finish.
// In-flight requests complete against the drive but their replies are
// lost with the connections; Shutdown drains them gracefully first.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.shutdown
	s.shutdown = true
	if !already {
		close(s.done)
	}
	ln := s.ln
	lnClosed := s.lnClosed
	s.lnClosed = true
	for c := range s.conns {
		_ = c.Close()
	}
	serving := s.serving
	s.mu.Unlock()
	var err error
	if ln != nil && !lnClosed {
		err = ln.Close()
	}
	if serving {
		<-s.stopped
	}
	return err
}

// Shutdown drains the server gracefully: the listener stops accepting,
// idle connections are evicted, and connections with a request in
// flight finish executing it and receive their reply before their
// handler exits. Connections still busy after timeout are
// force-closed. Like Close, it does not return until Serve has fully
// torn down.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	lnClosed := s.lnClosed
	s.lnClosed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	serving := s.serving
	s.mu.Unlock()
	if ln != nil && !lnClosed {
		_ = ln.Close()
	}
	// Boot idle readers: a connection parked between frames returns
	// from its blocking read immediately and its handler exits; one
	// mid-request finishes and notices the drain after its reply.
	now := time.Now()
	for _, c := range conns {
		_ = c.SetReadDeadline(now)
	}
	if serving {
		select {
		case <-s.stopped:
		case <-time.After(timeout):
		}
	}
	return s.Close()
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	s.mu.Lock()
	iot := s.ioTimeout
	s.mu.Unlock()
	// The whole handshake runs under one deadline: a stalled
	// (slowloris) handshake is evicted, never parked.
	if iot > 0 {
		_ = conn.SetDeadline(time.Now().Add(iot))
	}
	br := bufio.NewReaderSize(conn, readBufSize)
	hello, ok := s.handshake(conn, br)
	if !ok {
		return
	}
	if iot > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	cred := types.Cred{User: hello.User, Client: hello.Client, Admin: hello.Admin}
	sess := s.lookupSession(cred.Client, hello.Session)
	// One request is in flight per connection, so one request struct and
	// one reply channel serve the connection's whole life.
	req, reply := new(Request), make(chan *Response, 1)
	for {
		// The wait for a frame's first byte may last forever — idle
		// sessions are legal — but once a frame has begun, the rest must
		// arrive within the timeout: a mid-frame stall is a broken or
		// hostile peer, and the connection is evicted rather than left
		// holding drive resources hostage (§3.2).
		if iot > 0 {
			_ = conn.SetReadDeadline(time.Time{})
		}
		// Checked after the deadline is cleared: Shutdown sets draining
		// and then boots idle readers with an immediate deadline, so
		// whichever order the two ran in, this read does not park.
		if s.draining.Load() {
			return
		}
		if _, err := br.Peek(1); err != nil {
			return
		}
		if iot > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(iot))
		}
		// req.Data aliases the pooled frame until process returns; the
		// drive copies what it keeps (core's TestWriteAppendDoNotRetainData).
		in := getFrame()
		body, err := readFrame(br, in, MaxFrame)
		if err == nil {
			err = requestLayout.decode(body, req, true)
		}
		if err != nil {
			putFrame(in)
			return
		}
		resp := s.process(sess, cred, req, reply)
		putFrame(in)
		if iot > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(iot))
		}
		err = writeResponse(conn, resp)
		if errors.Is(err, errUnsendable) {
			// A reply too large for a frame: say so rather than go silent.
			err = writeResponse(conn, &Response{Op: resp.Op, ID: resp.ID, Errno: core.Errno(types.ErrTooLarge)})
		}
		if err != nil {
			return
		}
	}
}

// handshake challenges the peer and vets its Hello. Nothing an
// unauthenticated peer sends can make it read or allocate more than
// maxHelloFrame bytes, and a Hello that does not open with this protocol's
// magic is refused without being decoded further.
func (s *Server) handshake(conn net.Conn, br *bufio.Reader) (Hello, bool) {
	var nonce [nonceLen]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return Hello{}, false
	}
	err := writeFrame(conn, nonceLen, func(e *xdr.Encoder) error { e.OpaqueFixed(nonce[:]); return nil })
	if err != nil {
		return Hello{}, false
	}
	in := getFrame()
	defer putFrame(in)
	body, err := readFrame(br, in, maxHelloFrame)
	if err != nil {
		return Hello{}, false
	}
	hello, err := decodeHello(body)
	if err != nil && !errors.Is(err, ErrProtocol) {
		return Hello{}, false
	}
	errno := errnoAuthFailed
	if err == nil && s.keys.verify(&hello, nonce[:]) {
		errno = 0
	}
	err = writeFrame(conn, helloReplyLen, putHelloReply(errno))
	return hello, err == nil && errno == 0
}

func writeResponse(w io.Writer, resp *Response) error {
	return writeFrame(w, msgHdrLen+len(resp.Data), func(e *xdr.Encoder) error { return responseLayout.put(e, resp, true) })
}

// process executes one request with duplicate suppression. The session
// mutex is held across execution: if a zombie handler (an older, dying
// connection of the same session) is still executing this request, the
// retransmission blocks here and then finds the cached reply instead
// of executing — and auditing — the command twice.
func (s *Server) process(sess *session, cred types.Cred, req *Request, reply chan *Response) *Response {
	if sess == nil || req.ID == 0 {
		resp, _ := s.submit(cred, req, reply)
		return resp
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.lastUsed.Store(time.Now().UnixNano())
	switch {
	case req.ID == sess.lastID && sess.lastResp != nil:
		// Retransmission of the last executed request — its reply was
		// lost on the wire. Serve the cached reply; the command does not
		// execute again and leaves no second audit record.
		return sess.lastResp
	case req.ID < sess.lastID:
		// Older than the cache: the client violated the one-in-flight
		// protocol, or someone is replaying captured traffic. Refuse.
		return &Response{Op: req.Op, ID: req.ID, Errno: core.Errno(types.ErrInval)}
	}
	resp, executed := s.submit(cred, req, reply)
	if executed {
		// The arrival of ID n proves the reply to n-1 was received;
		// that is the cache's eviction rule. Shed (ErrBusy) replies are
		// not cached — the request never executed, so an identical
		// reissue must be allowed to run.
		sess.lastID, sess.lastResp = req.ID, resp
	}
	return resp
}

// dispatch runs one request (or batch) through the handler. It narrows
// the user, unpacks batches, and stamps the request's Op and ID on the
// reply; a failed request's reply carries only its errno and wait hint.
func (s *Server) dispatch(cred types.Cred, req *Request) *Response {
	// A request may narrow the user within the authenticated client
	// session (the NFS gateway forwards per-request uids); it can never
	// escalate to admin.
	if req.User != 0 && !cred.Admin {
		cred.User = req.User
	}
	var resp *Response
	var err error
	if req.Op == types.OpBatch {
		resp = new(Response)
		for i := range req.Batch {
			resp.Batch = append(resp.Batch, *s.dispatch(cred, &req.Batch[i]))
		}
	} else {
		resp, err = s.handler(cred, req)
	}
	if err != nil {
		resp = &Response{Errno: core.Errno(err)}
		resp.RetryAfter, _ = types.RetryAfterHint(err)
	}
	resp.Op, resp.ID = req.Op, req.ID
	return resp
}
