package oncrpc

import (
	"encoding/hex"
	"testing"
	"time"

	"s4/internal/xdr"
)

const (
	testProg = 200001
	testVers = 1
)

func startEcho(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Register(testProg, testVers, func(proc uint32, cred Cred, d *xdr.Decoder, e *xdr.Encoder) uint32 {
		switch proc {
		case 0:
			return AcceptSuccess
		case 1: // echo string + report uid
			msg := d.String(1024)
			if d.Err() != nil {
				return AcceptGarbageArgs
			}
			e.String(msg)
			e.Uint32(cred.UID)
			return AcceptSuccess
		}
		return AcceptProcUnavail
	})
	go func() { _ = s.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("bind timeout")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, s.Addr().String()
}

func TestCallEcho(t *testing.T) {
	_, addr := startEcho(t)
	c, err := DialClient(addr, 777, 100, "client.example")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := xdr.NewEncoder()
	args.String("ping over ONC RPC")
	d, err := c.Call(testProg, testVers, 1, args.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := d.String(1024)
	if d.Err() != nil || got != "ping over ONC RPC" {
		t.Fatal(got, d.Err())
	}
	uid := d.Uint32()
	if d.Err() != nil || uid != 777 {
		t.Fatalf("AUTH_UNIX uid did not arrive: %d %v", uid, d.Err())
	}
}

func TestNullProc(t *testing.T) {
	_, addr := startEcho(t)
	c, err := DialClient(addr, 0, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(testProg, testVers, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownProgramAndProc(t *testing.T) {
	_, addr := startEcho(t)
	c, err := DialClient(addr, 0, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(999999, 1, 0, nil); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := c.Call(testProg, testVers, 42, nil); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

// TestBadCredentialIsAuthError: a call whose AUTH_UNIX body holds only
// the stamp is refused as MSG_DENIED / AUTH_ERROR / AUTH_BADCRED (RFC
// 1057 §9), not as a version mismatch; a call of another RPC version
// still gets RPC_MISMATCH (2..2).
func TestBadCredentialIsAuthError(t *testing.T) {
	s, _ := startEcho(t)
	call := func(rpcvers uint32, credBody []byte) []byte {
		e := xdr.NewEncoder()
		e.Uint32(5) // xid
		e.Uint32(msgCall)
		e.Uint32(rpcvers)
		e.Uint32(testProg)
		e.Uint32(testVers)
		e.Uint32(0)
		e.Uint32(AuthUnix)
		e.Opaque(credBody)
		e.Uint32(AuthNull) // verifier
		e.Uint32(0)
		return e.Bytes()
	}
	whole := xdr.NewEncoder()
	whole.Uint32(0) // stamp
	whole.String("client.example")
	whole.Uint32(1000)
	whole.Uint32(100)
	whole.Uint32(0) // no aux gids
	for _, c := range []struct {
		name string
		pkt  []byte
		want string
	}{
		{"stamp only", call(2, []byte{0, 0, 0, 0}), "00000005" + "00000001" + "00000001" + "00000001" + "00000001"},
		{"rpc version 3", call(3, whole.Bytes()), "00000005" + "00000001" + "00000001" + "00000000" + "00000002" + "00000002"},
		{"well formed", call(2, whole.Bytes()), "00000005" + "00000001" + "00000000" + "00000000" + "00000000" + "00000000"},
	} {
		var e xdr.Encoder
		if got := hex.EncodeToString(s.handle(c.pkt, &e)); got != c.want {
			t.Errorf("%s: reply %s, want %s", c.name, got, c.want)
		}
	}
}
