// Package oncrpc implements the ONC RPC v2 message protocol (RFC 1057)
// over UDP — the transport NFSv2 classically rode on (the paper's
// testbed spoke NFSv2/UDP on a 100Mb LAN).
//
// Scope: CALL/REPLY framing, AUTH_NULL and AUTH_UNIX credentials (the
// uid/gid a Linux NFS client sends), accepted/denied replies, and a
// UDP server that dispatches to registered program handlers. Transports
// beyond UDP and the portmapper protocol are out of scope; servers
// listen on fixed ports.
package oncrpc

import (
	"bytes"
	"fmt"
	"net"
	"sync"

	"s4/internal/xdr"
)

// Message type discriminants.
const (
	msgCall  = 0
	msgReply = 1
)

// Reply status.
const (
	replyAccepted = 0
	replyDenied   = 1
)

// Accept status.
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// Auth flavors.
const (
	AuthNull = 0
	AuthUnix = 1
)

// Cred is the caller's identity as presented in the RPC credential.
type Cred struct {
	Flavor  uint32
	UID     uint32
	GID     uint32
	Machine string
}

// Handler serves one program: decode args from d, encode results to e,
// and return an accept status.
type Handler func(proc uint32, cred Cred, d *xdr.Decoder, e *xdr.Encoder) uint32

type progKey struct {
	prog, vers uint32
}

// Server dispatches ONC RPC calls arriving on a UDP socket.
type Server struct {
	mu       sync.Mutex
	programs map[progKey]Handler
	conn     *net.UDPConn
	closed   bool
}

// NewServer returns an empty server.
func NewServer() *Server { return &Server{programs: make(map[progKey]Handler)} }

// Register installs a handler for (prog, vers).
func (s *Server) Register(prog, vers uint32, h Handler) {
	s.mu.Lock()
	s.programs[progKey{prog, vers}] = h
	s.mu.Unlock()
}

// ListenAndServe binds addr (e.g. "127.0.0.1:12049") and serves until
// Close. It blocks.
func (s *Server) ListenAndServe(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	return s.serve(conn)
}

// Addr returns the bound UDP address (nil before ListenAndServe).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	return s.conn.LocalAddr()
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn != nil {
		return s.conn.Close()
	}
	return nil
}

func (s *Server) serve(conn *net.UDPConn) error {
	buf := make([]byte, 65536)
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		reply := s.handle(buf[:n])
		if reply != nil {
			if _, err := conn.WriteToUDP(reply, peer); err != nil && !s.isClosed() {
				return err
			}
		}
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handle decodes one call and produces the reply datagram (nil to drop).
func (s *Server) handle(pkt []byte) []byte {
	d := xdr.NewDecoder(pkt)
	xid, err := d.Uint32()
	if err != nil {
		return nil
	}
	mtype, err := d.Uint32()
	if err != nil || mtype != msgCall {
		return nil
	}
	rpcvers, _ := d.Uint32()
	prog, _ := d.Uint32()
	vers, _ := d.Uint32()
	proc, err := d.Uint32()
	if err != nil || rpcvers != 2 {
		return denied(xid)
	}
	cred, err := decodeAuth(d)
	if err != nil {
		return denied(xid)
	}
	// Verifier: flavor + opaque, ignored.
	if _, err := d.Uint32(); err != nil {
		return denied(xid)
	}
	if _, err := d.Opaque(400); err != nil {
		return denied(xid)
	}

	s.mu.Lock()
	h := s.programs[progKey{prog, vers}]
	s.mu.Unlock()

	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(replyAccepted)
	e.Uint32(AuthNull) // verifier
	e.Uint32(0)
	if h == nil {
		e.Uint32(AcceptProgUnavail)
		return e.Bytes()
	}
	body := xdr.NewEncoder()
	stat := h(proc, cred, d, body)
	e.Uint32(stat)
	if stat == AcceptSuccess {
		e.OpaqueFixed(body.Bytes())
	}
	return e.Bytes()
}

func decodeAuth(d *xdr.Decoder) (Cred, error) {
	var c Cred
	flavor, err := d.Uint32()
	if err != nil {
		return c, err
	}
	c.Flavor = flavor
	body, err := d.Opaque(400)
	if err != nil {
		return c, err
	}
	if flavor == AuthUnix {
		ad := xdr.NewDecoder(body)
		if _, err := ad.Uint32(); err != nil { // stamp
			return c, err
		}
		if c.Machine, err = ad.String(255); err != nil {
			return c, err
		}
		if c.UID, err = ad.Uint32(); err != nil {
			return c, err
		}
		if c.GID, err = ad.Uint32(); err != nil {
			return c, err
		}
		// Auxiliary gids ignored.
	}
	return c, nil
}

func denied(xid uint32) []byte {
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(replyDenied)
	e.Uint32(0) // RPC_MISMATCH
	e.Uint32(2)
	e.Uint32(2)
	return e.Bytes()
}

// Client issues ONC RPC calls over UDP.
type Client struct {
	mu   sync.Mutex
	conn *net.UDPConn
	xid  uint32
	cred Cred
	// rbuf receives every reply datagram: calls are serialized by mu, so
	// one maximum-size buffer serves them all, and each caller is handed
	// a copy the size of its reply instead of a fresh, zeroed 64 KB.
	rbuf []byte
}

// DialClient connects to a UDP RPC server with the given AUTH_UNIX
// identity.
func DialClient(addr string, uid, gid uint32, machine string) (*Client, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, xid: 1, cred: Cred{Flavor: AuthUnix, UID: uid, GID: gid, Machine: machine},
		rbuf: make([]byte, 65536)}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// Call issues (prog, vers, proc) with pre-encoded args and returns the
// decoded result body.
func (c *Client) Call(prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xid++
	e := xdr.NewEncoder()
	e.Uint32(c.xid)
	e.Uint32(msgCall)
	e.Uint32(2)
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	// AUTH_UNIX credential.
	e.Uint32(AuthUnix)
	body := xdr.NewEncoder()
	body.Uint32(0) // stamp
	body.String(c.cred.Machine)
	body.Uint32(c.cred.UID)
	body.Uint32(c.cred.GID)
	body.Uint32(0) // no aux gids
	e.Opaque(body.Bytes())
	e.Uint32(AuthNull) // verifier
	e.Uint32(0)
	e.OpaqueFixed(args)
	if _, err := c.conn.Write(e.Bytes()); err != nil {
		return nil, err
	}
	n, err := c.conn.Read(c.rbuf)
	if err != nil {
		return nil, err
	}
	// The decoder outlives the lock, and its opaques may alias its input.
	d := xdr.NewDecoder(bytes.Clone(c.rbuf[:n]))
	xid, err := d.Uint32()
	if err != nil || xid != c.xid {
		return nil, fmt.Errorf("oncrpc: xid mismatch")
	}
	if mt, _ := d.Uint32(); mt != msgReply {
		return nil, fmt.Errorf("oncrpc: not a reply")
	}
	if st, _ := d.Uint32(); st != replyAccepted {
		return nil, fmt.Errorf("oncrpc: call denied")
	}
	if _, err := d.Uint32(); err != nil { // verifier flavor
		return nil, err
	}
	if _, err := d.Opaque(400); err != nil { // verifier body
		return nil, err
	}
	stat, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if stat != AcceptSuccess {
		return nil, fmt.Errorf("oncrpc: accept status %d", stat)
	}
	return d, nil
}
