package s4rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"s4/internal/harness/leakcheck"
	"s4/internal/types"
	"s4/internal/xdr"
)

// frameOf returns the wire bytes (header included) of one frame.
func frameOf(t testing.TB, encode func(*xdr.Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, 0, encode); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requestFrame(t testing.TB, r *Request) []byte {
	return frameOf(t, func(e *xdr.Encoder) error { return requestLayout.put(e, r, true) })
}

func responseFrame(t testing.TB, r *Response) []byte {
	return frameOf(t, func(e *xdr.Encoder) error { return responseLayout.put(e, r, true) })
}

// words frames a body of raw 32-bit words, for messages the encoder
// refuses to produce.
func words(ws ...uint32) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(4*len(ws)))
	for _, w := range ws {
		out = binary.BigEndian.AppendUint32(out, w)
	}
	return out
}

// hostileFrames are wire prefixes a hostile or corrupted peer might
// deliver in place of a well-formed frame. Requests and replies share
// the message layout and both field tables have 16 rows, so each entry
// is hostile in either direction.
func hostileFrames(t testing.TB) map[string][]byte {
	valid := requestFrame(t, &Request{Op: types.OpStatus})
	truncated := append([]byte(nil), valid[:len(valid)-3]...)

	overflow := make([]byte, 8)
	binary.BigEndian.PutUint32(overflow, 0xFFFFFFFF) // 4 GiB "frame"
	maxPlus := make([]byte, 8)
	binary.BigEndian.PutUint32(maxPlus, uint32(MaxFrame)+1)
	// The largest legal claim, with nothing behind it: after
	// authentication the peer is merely slow, before it this is an
	// attempt to pin MaxFrame bytes per connection.
	maxClaim := binary.BigEndian.AppendUint32(nil, uint32(MaxFrame))

	// What a peer still speaking the retired gob format opens with: the
	// type descriptor of its Request struct.
	gobOpening, err := hex.DecodeString("ffc17f030101075265717565737401ff8000011301024f7001060001034f626a01" +
		"06000102494401060001024174010400" + "01064f666673657401060001064c65")
	if err != nil {
		t.Fatal(err)
	}
	garbage := append(binary.BigEndian.AppendUint32(nil, uint32(len(gobOpening))), gobOpening...)

	const batchBit = 1 << 16
	batch := uint32(types.OpBatch)
	return map[string][]byte{
		"truncated-payload": truncated,
		"length-4GiB":       overflow,
		"length-maxframe+1": maxPlus,
		"length-maxframe":   maxClaim,
		"garbage-gob":       garbage,
		"torn-header":       {0x00, 0x01}, // half a header
		// A batch whose one entry is itself a (here empty) batch.
		"nested-batch": words(batch, batchBit, 0, 0, 1, batch, batchBit, 0, 0, 0),
		// A batch entry that is not marked as a batch but carries one.
		"nested-batch-by-mask": words(batch, batchBit, 0, 0, 1, uint32(types.OpSync), batchBit, 0, 0, 0),
		// A count far beyond the bytes that follow it.
		"lying-count":   words(batch, batchBit, 0, 0, 0x00FFFFFF),
		"unknown-field": words(uint32(types.OpStatus), 1<<31, 0, 0),
		"trailing-word": words(uint32(types.OpStatus), 0, 0, 0, 0),
		"op-overflow":   words(0x100|uint32(types.OpStatus), 0, 0, 0),
	}
}

// TestServerSurvivesHostileFrames feeds each hostile frame to an
// authenticated connection and requires the server to drop that
// connection cleanly — no panic, no hang, no worker consumed — while
// continuing to serve a healthy client.
func TestServerSurvivesHostileFrames(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startServerTuned(t, func(s *Server) {
		s.SetWorkers(1)
		s.SetIOTimeout(300 * time.Millisecond)
	})
	healthy := dialUser(t, addr, 100)

	for name, frame := range hostileFrames(t) {
		t.Run(name, func(t *testing.T) {
			conn := rawHandshake(t, addr, 0)
			defer conn.Close()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			// The server must close the connection (hostile frames are
			// never answered) within the I/O deadline.
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			resp, err := conn.readResponse()
			if err == nil {
				t.Fatalf("server answered a hostile frame: %+v", resp)
			}
			if errors.Is(err, io.ErrShortBuffer) {
				t.Fatalf("unexpected error class: %v", err)
			}
			// The healthy session rides on, proving the hostile peer
			// neither crashed the server nor captured its one worker.
			if _, err := healthy.Status(); err != nil {
				t.Fatalf("healthy client broken after %s: %v", name, err)
			}
		})
	}
}

// TestClientSurvivesHostileReplies runs a fake server that answers the
// handshake and then serves each hostile frame as the "reply". The
// client must fail the call with an error — never panic or hang — and
// MaxAttempts: 1 keeps it from retrying into the same trap.
func TestClientSurvivesHostileReplies(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for name, frame := range hostileFrames(t) {
		frame := frame
		t.Run(name, func(t *testing.T) {
			addr, done := fakeServer(t, func(conn *rawConn) {
				if _, err := conn.readRequest(); err != nil {
					return
				}
				_, _ = conn.Write(frame)
			})
			c, err := DialConfig(Config{
				Addr: addr, Client: 1, User: 100, Key: clientKey,
				CallTimeout: 500 * time.Millisecond, MaxAttempts: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Status(); err == nil {
				t.Fatalf("hostile reply %s accepted", name)
			}
			done()
		})
	}
}

// TestHandshakeGarbage aims hostile bytes at the pre-auth surface: the
// server must shed them without letting the connection past the
// handshake. A frame whose header alone claims more than a Hello can
// hold is refused on the spot, before any buffer is sized or any byte
// awaited — with no I/O timeout configured (the library default) it
// would otherwise pin memory for as long as the peer cared to stay.
func TestHandshakeGarbage(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startServerTuned(t, func(s *Server) {
		s.SetIOTimeout(200 * time.Millisecond)
	})
	// attack delivers frame in place of a Hello and reports how the
	// server answered.
	attack := func(t *testing.T, addr string, frame []byte, wait time.Duration) (errno uint8, err error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rc := newRawConn(conn)
		if _, err := rc.readFrame(); err != nil { // nonce
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(wait))
		body, err := rc.readFrame()
		if err != nil {
			return 0, err
		}
		return decodeHelloReply(body)
	}
	for name, frame := range hostileFrames(t) {
		t.Run(name, func(t *testing.T) {
			// Whatever happens next, it must not be a granted session:
			// either the connection closes or the handshake is refused.
			if errno, err := attack(t, addr, frame, 3*time.Second); err == nil && errno == 0 {
				t.Fatalf("garbage handshake %s authenticated", name)
			}
		})
	}
	t.Run("no-timeout", func(t *testing.T) {
		addr, _ := startServerTuned(t, nil)
		for name, frame := range hostileFrames(t) {
			if len(frame) < frameHdrLen || binary.BigEndian.Uint32(frame) <= maxHelloFrame {
				continue // the server may fairly wait for the rest of these
			}
			t.Run(name, func(t *testing.T) {
				_, err := attack(t, addr, frame, time.Second)
				var ne net.Error
				if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
					t.Fatalf("oversized pre-auth claim %s still held open after 1s (err %v)", name, err)
				}
			})
		}
	})
}

// TestHandshakeWrongVersion: a peer presenting another protocol version
// is refused with the typed error on both ends, and its Hello is not
// decoded past the magic.
func TestHandshakeWrongVersion(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	hello := frameOf(t, putHello(&Hello{Client: 1, User: 100}))
	future := append([]byte(nil), hello...)
	binary.BigEndian.PutUint32(future[frameHdrLen:], protoMagic+1)
	future = future[:frameHdrLen+8] // the rest would not parse: it must not be looked at
	binary.BigEndian.PutUint32(future, 8)
	if _, err := decodeHello(future[frameHdrLen:]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("decodeHello of another version: %v, want ErrProtocol", err)
	}

	// Server side: the peer is told, in the one reply layout every
	// version shares, and the session is not granted.
	addr, _ := startServerTuned(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := newRawConn(conn)
	if _, err := rc.readFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(future); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	body, err := rc.readFrame()
	if err != nil {
		t.Fatalf("no refusal sent: %v", err)
	}
	if errno, err := decodeHelloReply(body); err != nil || errno == 0 {
		t.Fatalf("refusal decoded as errno %d, %v", errno, err)
	}

	// Client side: a server answering with another version's magic is a
	// permanent, typed failure — not retried, not mistaken for bad keys.
	faddr, done := fakeServerRaw(t, func(conn *rawConn) {
		_, _ = conn.Write(frameOf(t, func(e *xdr.Encoder) error { e.OpaqueFixed(make([]byte, nonceLen)); return nil }))
		_, _ = conn.readFrame()
		reply := frameOf(t, putHelloReply(0))
		binary.BigEndian.PutUint32(reply[frameHdrLen:], protoMagic+1)
		_, _ = conn.Write(reply)
	})
	defer done()
	if _, err := Dial(faddr, 1, 100, clientKey, false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("dial against another version: %v, want ErrProtocol", err)
	}
}

// FuzzFrameRequest hammers the server-side request decoder with
// arbitrary frame bodies: any outcome but a clean error or a valid
// request is a crash, and a request that decodes must survive the trip
// back through the encoder unchanged.
func FuzzFrameRequest(f *testing.F) {
	f.Add(requestFrame(f, &Request{Op: types.OpWrite, Obj: 3, ID: 9, Data: []byte("seed")})[frameHdrLen:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(requestFrame(f, &Request{Op: types.OpBatch, ID: 2, Batch: []Request{
		{Op: types.OpCreate, ACL: []types.ACLEntry{{User: 1, Perm: types.PermAll}}, Attr: []byte("a")},
		{Op: types.OpPMount, Name: "part", At: types.TimeNowest},
	}})[frameHdrLen:])
	for _, frame := range hostileFrames(f) {
		if len(frame) > frameHdrLen {
			f.Add(frame[frameHdrLen:])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxFrame {
			return // the framing layer rejects these before decode
		}
		var req, again Request
		if requestLayout.decode(body, &req, true) != nil {
			return
		}
		if err := requestLayout.decode(requestFrame(t, &req)[frameHdrLen:], &again, false); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("request changed across re-encoding:\n %+v\n %+v", req, again)
		}
	})
}

// FuzzFrameResponse does the same for the client-side reply decoder.
func FuzzFrameResponse(f *testing.F) {
	f.Add(responseFrame(f, &Response{ID: 9, Data: []byte("seed")})[frameHdrLen:])
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x00, 0x01})
	for _, r := range sampleResponses() {
		r := r
		f.Add(responseFrame(f, &r)[frameHdrLen:])
	}
	for _, frame := range hostileFrames(f) {
		if len(frame) > frameHdrLen {
			f.Add(frame[frameHdrLen:])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxFrame {
			return
		}
		var resp, again Response
		if responseLayout.decode(body, &resp, false) != nil {
			return
		}
		if err := responseLayout.decode(responseFrame(t, &resp)[frameHdrLen:], &again, false); err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("reply changed across re-encoding:\n %+v\n %+v", resp, again)
		}
	})
}

// FuzzFrameHeader fuzzes the full framed read path — header included —
// against a one-shot in-memory stream, proving length-prefix handling
// never over-allocates past its limit or panics.
func FuzzFrameHeader(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, limit := range []int{MaxFrame, maxHelloFrame} {
			var buf xdr.Encoder
			body, err := readFrame(bufio.NewReader(bytes.NewReader(stream)), &buf, limit)
			if err != nil {
				if cap(buf.Bytes()) > limit {
					t.Fatalf("a refused frame sized a %d-byte buffer, above the limit %d", cap(buf.Bytes()), limit)
				}
				continue
			}
			if len(body) > limit {
				t.Fatalf("readFrame returned %d bytes, above the limit %d", len(body), limit)
			}
		}
	})
}

// FuzzHello hammers the one decoder an unauthenticated peer reaches.
func FuzzHello(f *testing.F) {
	f.Add(frameOf(f, putHello(&Hello{Client: 1, User: 100, MAC: make([]byte, macLen), Admin: true, Session: 7}))[frameHdrLen:])
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, protoMagic))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := decodeHello(body)
		if err != nil {
			return
		}
		if len(body) > maxHelloFrame || len(h.MAC) > macLen {
			t.Fatalf("a %d-byte Hello with a %d-byte MAC decoded; the limits are %d and %d", len(body), len(h.MAC), maxHelloFrame, macLen)
		}
		again, err := decodeHello(frameOf(t, putHello(&h))[frameHdrLen:])
		if err != nil || !reflect.DeepEqual(h, again) {
			t.Fatalf("Hello changed across re-encoding: %+v -> %+v, %v", h, again, err)
		}
	})
}
