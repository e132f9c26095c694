package s4rpc

import (
	"bufio"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/types"
	"s4/internal/xdr"
)

// Config tunes a resilient client connection. The zero value of every
// tuning field selects a sensible default; Addr, Client/User and Key
// identify the session as in Dial.
type Config struct {
	Addr   string
	Client types.ClientID
	User   types.UserID
	Key    []byte
	Admin  bool

	// DialTimeout bounds one connect + handshake attempt.
	DialTimeout time.Duration
	// CallTimeout bounds one request/reply exchange; a reply that does
	// not arrive within it is treated as lost and the call is retried
	// on a fresh connection (duplicate-safe: see proto.go).
	CallTimeout time.Duration
	// MaxAttempts bounds the attempts per Call, counting the first;
	// 1 disables retries. Zero selects the default (10).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between attempts. A server-supplied retry-after hint (ErrBusy,
	// ErrThrottled) overrides a shorter backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (c *Config) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 10
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
}

// Stats counts the client's resilience events.
type Stats struct {
	// Retries counts transport-level retries: the connection died or
	// the reply was lost, and the same request ID was retransmitted.
	Retries uint64
	// Reconnects counts successful re-handshakes after a broken
	// connection.
	Reconnects uint64
	// BusyWaits and ThrottleWaits count retryable server rejections
	// honored with a wait (each re-issued as a new request).
	BusyWaits     uint64
	ThrottleWaits uint64
}

// Client is an authenticated connection to an S4 drive. Methods mirror
// Table 1; they are safe for concurrent use (requests serialize on the
// session, like the single command stream of a disk).
//
// The client is resilient: calls carry per-session monotonic request
// IDs, and on a broken connection or lost reply it reconnects,
// re-handshakes with the same session ID, and retransmits — the
// server's duplicate-reply cache guarantees the retried command
// executes at most once (see proto.go). Retryable rejections (ErrBusy,
// ErrThrottled) are re-issued as new requests after the server's
// suggested wait. Close promptly unblocks any pending call with
// types.ErrClosed.
type Client struct {
	cfg     Config
	session uint64

	callMu sync.Mutex // serializes calls: one in-flight request per session
	nextID uint64     // guarded by callMu
	rng    *mrand.Rand

	mu       sync.Mutex // guards conn, br and closed; never held across I/O
	conn     net.Conn
	br       *bufio.Reader // conn's read side; replaced with it
	closed   bool
	closedCh chan struct{}

	retries, reconnects, busyWaits, throttleWaits atomic.Uint64
}

// errNoConn marks an attempt made while disconnected; the retry loop
// redials before the next attempt.
var errNoConn = errors.New("s4rpc: not connected")

// Dial connects and authenticates with default resilience settings.
// For an administrative session pass admin=true and the drive's
// administrator key.
func Dial(addr string, client types.ClientID, user types.UserID, key []byte, admin bool) (*Client, error) {
	return DialConfig(Config{Addr: addr, Client: client, User: user, Key: key, Admin: admin})
}

// DialConfig connects and authenticates with explicit resilience
// settings. Authentication failure is permanent and never retried.
func DialConfig(cfg Config) (*Client, error) {
	cfg.fill()
	var sb [8]byte
	_, err := rand.Read(sb[:])
	if err != nil {
		return nil, err
	}
	session := binary.LittleEndian.Uint64(sb[:]) | 1 // nonzero
	c := &Client{
		cfg: cfg, session: session, nextID: 1,
		rng:      mrand.New(mrand.NewSource(int64(session))),
		closedCh: make(chan struct{}),
	}
	if c.conn, c.br, err = c.handshake(); err != nil {
		return nil, err
	}
	return c, nil
}

// handshake dials and authenticates one connection, presenting the
// client's persistent session ID so the server resumes its
// duplicate-reply cache.
func (c *Client) handshake() (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if c.cfg.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	}
	br := bufio.NewReaderSize(conn, readBufSize)
	if err := c.authenticate(conn, br); err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// authenticate answers the server's challenge. The two frames it reads
// have constant sizes; anything else is refused unread.
func (c *Client) authenticate(conn net.Conn, br *bufio.Reader) error {
	in := getFrame()
	defer putFrame(in)
	nonce, err := readFrame(br, in, nonceLen)
	if err != nil {
		return err
	}
	if len(nonce) != nonceLen {
		return fmt.Errorf("s4rpc: challenge of %d bytes: %w", len(nonce), ErrProtocol)
	}
	mac := hmac.New(sha256.New, c.cfg.Key)
	mac.Write(nonce)
	hello := &Hello{
		Client: c.cfg.Client, User: c.cfg.User, MAC: mac.Sum(nil),
		Admin: c.cfg.Admin, Session: c.session,
	}
	err = writeFrame(conn, maxHelloFrame, putHello(hello))
	if err != nil {
		return err
	}
	body, err := readFrame(br, in, helloReplyLen)
	if err != nil {
		return err
	}
	errno, err := decodeHelloReply(body)
	if err != nil {
		return fmt.Errorf("s4rpc: handshake rejected: %w", err)
	}
	if errno != 0 {
		return fmt.Errorf("s4rpc: handshake rejected: %w", core.ErrnoToError(errno))
	}
	return nil
}

// Close drops the session. A call blocked on the wire is promptly
// unblocked and returns types.ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	conn := c.conn
	c.conn, c.br = nil, nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Retries:       c.retries.Load(),
		Reconnects:    c.reconnects.Load(),
		BusyWaits:     c.busyWaits.Load(),
		ThrottleWaits: c.throttleWaits.Load(),
	}
}

// Call issues one raw request (exported so tools can compose batches),
// retrying across reconnects until it gets a definitive answer or runs
// out of attempts.
func (c *Client) Call(req *Request) (*Response, error) {
	return c.CallContext(context.Background(), req)
}

// CallContext is Call with a caller-controlled deadline/cancellation.
func (c *Client) CallContext(ctx context.Context, req *Request) (*Response, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	// Shallow copy so retries can renumber without mutating the
	// caller's struct.
	r := *req
	r.ID = c.nextID
	c.nextID++
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := c.attempt(ctx, &r)
		if err == nil {
			if attempt >= c.cfg.MaxAttempts || c.cfg.MaxAttempts == 1 {
				return resp, nil
			}
			var wait time.Duration
			switch resp.Errno {
			case errnoBusy:
				c.busyWaits.Add(1)
			case errnoThrottled:
				c.throttleWaits.Add(1)
			default:
				return resp, nil
			}
			wait = c.backoff(attempt, resp.RetryAfter)
			if c.sleep(ctx, wait) != nil {
				return resp, nil
			}
			// A retryable rejection is a definitive answer to THIS
			// request (it did not execute, or was refused with a
			// penalty); the retry is a new request with a new ID.
			r.ID = c.nextID
			c.nextID++
			continue
		}
		// Transport failure: connection broken or reply lost. The
		// request keeps its ID — if it executed and only the reply was
		// lost, the server answers the retransmission from its
		// duplicate-reply cache instead of executing twice.
		lastErr = err
		if errors.Is(err, errUnsendable) {
			return nil, err
		}
		if c.isClosed() {
			return nil, types.ErrClosed
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= c.cfg.MaxAttempts {
			return nil, lastErr
		}
		c.retries.Add(1)
		if err := c.redial(ctx, attempt); err != nil {
			if errors.Is(err, types.ErrClosed) || errors.Is(err, types.ErrAuthFailed) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err // keep attempting: next loop redials again
		}
	}
}

// attempt performs one request/reply exchange on the current
// connection. Any failure poisons the connection (it is closed and
// dropped) so the retry loop re-handshakes.
func (c *Client) attempt(ctx context.Context, r *Request) (*Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, types.ErrClosed
	}
	conn, br := c.conn, c.br
	c.mu.Unlock()
	if conn == nil {
		return nil, errNoConn
	}
	var deadline time.Time
	if c.cfg.CallTimeout > 0 {
		deadline = time.Now().Add(c.cfg.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	fail := func(err error) (*Response, error) {
		c.dropConn(conn)
		return nil, err
	}
	err := writeFrame(conn, msgHdrLen+len(r.Data), func(e *xdr.Encoder) error { return requestLayout.put(e, r, true) })
	if errors.Is(err, errUnsendable) {
		return nil, err // nothing was sent: the connection is still in step
	} else if err != nil {
		return fail(err)
	}
	in := getFrame()
	defer putFrame(in)
	body, err := readFrame(br, in, MaxFrame)
	if err != nil {
		return fail(err)
	}
	resp := new(Response)
	if err := responseLayout.decode(body, resp, false); err != nil {
		return fail(err)
	}
	if resp.Op != r.Op || (resp.ID != 0 && resp.ID != r.ID) {
		// Desynchronized reply stream — e.g. a stale reply surfacing
		// after a partial failure. The connection cannot be trusted.
		return fail(fmt.Errorf("s4rpc: reply to %v %d on %v %d: %w",
			resp.Op, resp.ID, r.Op, r.ID, types.ErrBadHandle))
	}
	_ = conn.SetDeadline(time.Time{})
	return resp, nil
}

// dropConn closes conn and clears it from the client if still current.
func (c *Client) dropConn(conn net.Conn) {
	_ = conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.br = nil, nil
	}
	c.mu.Unlock()
}

// redial waits out the backoff and establishes a fresh authenticated
// connection for the same session.
func (c *Client) redial(ctx context.Context, attempt int) error {
	if err := c.sleep(ctx, c.backoff(attempt, 0)); err != nil {
		return err
	}
	conn, br, err := c.handshake()
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return types.ErrClosed
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.br = conn, br
	c.mu.Unlock()
	c.reconnects.Add(1)
	return nil
}

// backoff computes the jittered exponential wait before attempt+1,
// honoring a server-supplied retry-after hint when it is longer.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	base := c.cfg.BackoffBase << uint(attempt-1)
	if base > c.cfg.BackoffMax || base <= 0 {
		base = c.cfg.BackoffMax
	}
	d := base/2 + time.Duration(c.rng.Int63n(int64(base)))
	if hint > d {
		d = hint
	}
	return d
}

// sleep waits for d, aborting on context cancellation or Close.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closedCh:
		return types.ErrClosed
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) call1(req *Request) (*Response, error) {
	resp, err := c.Call(req)
	if err != nil {
		return nil, err
	}
	if e := resp.Err(); e != nil {
		return resp, e
	}
	return resp, nil
}

// call issues req and picks the result out of a reply that succeeded.
func call[T any](c *Client, req *Request, pick func(*Response) T) (T, error) {
	resp, err := c.call1(req)
	if err != nil {
		var zero T
		return zero, err
	}
	return pick(resp), nil
}

// do issues a request whose reply carries nothing but its status.
func (c *Client) do(req *Request) error {
	_, err := c.call1(req)
	return err
}

// Create makes an object (Table 1).
func (c *Client) Create(acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	return call(c, &Request{Op: types.OpCreate, ACL: acl, Attr: attr}, func(r *Response) types.ObjectID { return r.Obj })
}

// CreateWithID makes an object under a caller-chosen ID (the shard
// router's create path: the ring owns allocation). The drive refuses
// reserved IDs and IDs it has ever seen.
func (c *Client) CreateWithID(id types.ObjectID, acl []types.ACLEntry, attr []byte) error {
	return c.do(&Request{Op: types.OpCreate, Obj: id, ACL: acl, Attr: attr})
}

// Delete removes an object; its versions stay in the history pool.
func (c *Client) Delete(obj types.ObjectID) error {
	return c.do(&Request{Op: types.OpDelete, Obj: obj})
}

// Read returns up to n bytes at off of the version current at `at`.
func (c *Client) Read(obj types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	return call(c, &Request{Op: types.OpRead, Obj: obj, Offset: off, Length: n, At: at}, func(r *Response) []byte { return r.Data })
}

// Write stores data at off.
func (c *Client) Write(obj types.ObjectID, off uint64, data []byte) error {
	return c.do(&Request{Op: types.OpWrite, Obj: obj, Offset: off, Data: data})
}

// Append writes at the object's end, returning the landing offset.
func (c *Client) Append(obj types.ObjectID, data []byte) (uint64, error) {
	return call(c, &Request{Op: types.OpAppend, Obj: obj, Data: data}, func(r *Response) uint64 { return r.Offset })
}

// Truncate sets the object's length.
func (c *Client) Truncate(obj types.ObjectID, size uint64) error {
	return c.do(&Request{Op: types.OpTruncate, Obj: obj, Length: size})
}

// GetAttr fetches attributes as of `at`.
func (c *Client) GetAttr(obj types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	return call(c, &Request{Op: types.OpGetAttr, Obj: obj, At: at}, func(r *Response) core.AttrInfo { return r.Attr })
}

// SetAttr replaces the opaque attribute blob.
func (c *Client) SetAttr(obj types.ObjectID, attr []byte) error {
	return c.do(&Request{Op: types.OpSetAttr, Obj: obj, Attr: attr})
}

// GetACLByUser returns the effective entry for user as of `at`.
func (c *Client) GetACLByUser(obj types.ObjectID, user types.UserID, at types.Timestamp) (types.ACLEntry, error) {
	return call(c, &Request{Op: types.OpGetACLByUser, Obj: obj, Offset: uint64(user), At: at}, func(r *Response) types.ACLEntry { return r.ACL })
}

// GetACLByIndex returns ACL slot idx as of `at`.
func (c *Client) GetACLByIndex(obj types.ObjectID, idx int, at types.Timestamp) (types.ACLEntry, error) {
	return call(c, &Request{Op: types.OpGetACLByIndex, Obj: obj, ACLIdx: idx, At: at}, func(r *Response) types.ACLEntry { return r.ACL })
}

// SetACL replaces ACL slot idx.
func (c *Client) SetACL(obj types.ObjectID, idx int, e types.ACLEntry) error {
	return c.do(&Request{Op: types.OpSetACL, Obj: obj, ACLIdx: idx, ACL: []types.ACLEntry{e}})
}

// PCreate binds name to obj.
func (c *Client) PCreate(name string, obj types.ObjectID) error {
	return c.do(&Request{Op: types.OpPCreate, Name: name, Obj: obj})
}

// PDelete removes a name binding.
func (c *Client) PDelete(name string) error {
	return c.do(&Request{Op: types.OpPDelete, Name: name})
}

// PList lists partitions as of `at`.
func (c *Client) PList(at types.Timestamp) ([]core.PartEntry, error) {
	return call(c, &Request{Op: types.OpPList, At: at}, func(r *Response) []core.PartEntry { return r.Parts })
}

// PMount resolves a partition name as of `at`.
func (c *Client) PMount(name string, at types.Timestamp) (types.ObjectID, error) {
	return call(c, &Request{Op: types.OpPMount, Name: name, At: at}, func(r *Response) types.ObjectID { return r.Obj })
}

// Sync forces all acknowledged modifications durable.
func (c *Client) Sync() error {
	return c.do(&Request{Op: types.OpSync})
}

// SyncObj forces the caller's acknowledged writes to one object
// durable. Through a shard router this touches only the shard holding
// obj, unlike Sync which broadcasts to every shard.
func (c *Client) SyncObj(obj types.ObjectID) error {
	return c.do(&Request{Op: types.OpSync, Obj: obj})
}

// SetWindow adjusts the detection window (admin session).
func (c *Client) SetWindow(w time.Duration) error {
	return c.do(&Request{Op: types.OpSetWindow, Window: w})
}

// SetPolicy installs the retention policy for obj (admin session);
// obj 0 sets the drive-wide default, the zero policy clears an entry.
func (c *Client) SetPolicy(obj types.ObjectID, p types.Policy) error {
	return c.do(&Request{Op: types.OpSetPolicy, Obj: obj, Policy: p})
}

// GetPolicy returns the retention policy in force for obj and whether
// the object carries its own entry (false = inherited default). obj 0
// asks for the drive default itself.
func (c *Client) GetPolicy(obj types.ObjectID) (types.Policy, bool, error) {
	resp, err := c.call1(&Request{Op: types.OpGetPolicy, Obj: obj})
	if err != nil {
		return types.Policy{}, false, err
	}
	return resp.Policy, resp.PolicyOwn, nil
}

// Flush erases all objects' versions in (from, to] (admin session).
func (c *Client) Flush(from, to types.Timestamp) error {
	return c.do(&Request{Op: types.OpFlush, From: from, To: to})
}

// FlushO erases one object's versions in (from, to] (admin session).
func (c *Client) FlushO(obj types.ObjectID, from, to types.Timestamp) error {
	return c.do(&Request{Op: types.OpFlushO, Obj: obj, From: from, To: to})
}

// ListVersions returns an object's retained history, newest first.
func (c *Client) ListVersions(obj types.ObjectID, max int) ([]core.VersionInfo, error) {
	return call(c, &Request{Op: types.OpListVersions, Obj: obj, Max: max}, func(r *Response) []core.VersionInfo { return r.Versions })
}

// Revert copies the version at `at` forward as the new current version.
func (c *Client) Revert(obj types.ObjectID, at types.Timestamp) error {
	return c.do(&Request{Op: types.OpRevert, Obj: obj, At: at})
}

// AuditRead returns audit records from seq on (admin session).
func (c *Client) AuditRead(fromSeq uint64, max int) ([]audit.Record, error) {
	return call(c, &Request{Op: types.OpAuditRead, Seq: fromSeq, Max: max}, func(r *Response) []audit.Record { return r.Records })
}

// Status reports drive occupancy and health.
func (c *Client) Status() (core.StatusInfo, error) {
	return call(c, &Request{Op: types.OpStatus}, func(r *Response) core.StatusInfo { return r.Status })
}

// ShardStats reads the drive's activity counters plus, when the peer
// is a shard gate, the per-shard breakdown (empty for a single drive).
func (c *Client) ShardStats() (core.Stats, []core.Stats, error) {
	resp, err := c.call1(&Request{Op: types.OpStats})
	if err != nil {
		return core.Stats{}, nil, err
	}
	return resp.Stats, resp.ShardStats, nil
}

// Scrub triggers an on-demand integrity sweep (admin): every sealed
// segment is read back and verified against its summary checksums.
func (c *Client) Scrub() (core.ScrubResult, error) {
	return call(c, &Request{Op: types.OpScrub}, func(r *Response) core.ScrubResult { return r.Scrub })
}

// Batch executes several requests in one round trip (§4.1.2). Each
// reply carries its own request's status; the error reports a batch
// that did not run as a whole (shed, refused, or a reply too large).
func (c *Client) Batch(reqs []Request) ([]Response, error) {
	return call(c, &Request{Op: types.OpBatch, Batch: reqs}, func(r *Response) []Response { return r.Batch })
}
