package nfsv2

import (
	"encoding/hex"
	"net"
	"testing"
	"time"

	"s4/internal/fsys"
	"s4/internal/oncrpc"
	"s4/internal/xdr"
)

// attrFS serves one fixed root directory and nothing else.
type attrFS struct{ fsys.FileSys }

func (attrFS) Root() fsys.Handle { return 1 }

func (attrFS) GetAttr(h fsys.Handle) (fsys.Attr, error) {
	if h != 1 {
		return fsys.Attr{}, fsys.ErrStale
	}
	return fsys.Attr{Type: fsys.TypeDir, Mode: 0755, Nlink: 2, UID: 1000, GID: 100, Size: 4096,
		Mtime: 1_700_000_000_123_456_789, Ctime: 1_700_000_001_000_000_000}, nil
}

// rawCall frames one AUTH_UNIX call to the NFS program.
func rawCall(xid, proc uint32, args []byte) []byte {
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(0) // CALL
	e.Uint32(2)
	e.Uint32(ProgNFS)
	e.Uint32(VersNFS)
	e.Uint32(proc)
	cred := xdr.NewEncoder()
	cred.Uint32(0) // stamp
	cred.String("golden")
	cred.Uint32(1000)
	cred.Uint32(100)
	cred.Uint32(0) // no aux gids
	e.Uint32(oncrpc.AuthUnix)
	e.Opaque(cred.Bytes())
	e.Uint32(oncrpc.AuthNull) // verifier
	e.Uint32(0)
	e.OpaqueFixed(args)
	return e.Bytes()
}

func fhArgs(h fsys.Handle) []byte {
	e := xdr.NewEncoder()
	encodeFH(e, h)
	return e.Bytes()
}

// TestReplyBytesGolden pins the reply datagrams byte for byte: a
// GETATTR that succeeds (status, verifier and a full fattr after the
// accept status), one that fails inside NFS (NFSERR_STALE is still an
// accepted, successful RPC), one whose arguments are garbage and a
// procedure the program does not have (the accept status ends both
// replies). The server encodes every reply into one reused buffer with
// the accept status patched in after the results, so a stale tail from
// a longer earlier reply or a misplaced status would show here.
func TestReplyBytesGolden(t *testing.T) {
	srv := NewServer(attrFS{}, "/s4")
	go func() { _ = srv.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Reply header: xid, REPLY, MSG_ACCEPTED, AUTH_NULL verifier (flavor,
	// empty body); then the accept status and, on success, the results.
	const head = "00000001" + "00000000" + "00000000" + "00000000"
	const fattr = "00000002" + "000041ed" + "00000002" + "000003e8" + "00000064" + // NFDIR, mode, nlink, uid, gid
		"00001000" + "00001000" + "00000000" + "00000001" + // size, blocksize, rdev, blocks
		"00000001" + "00000001" + // fsid, fileid
		"6553f100" + "0001e240" + "6553f100" + "0001e240" + "6553f101" + "00000000" // atime, mtime, ctime
	cases := []struct {
		name string
		call []byte
		want string
	}{
		{"getattr", rawCall(7, ProcGetattr, fhArgs(1)), "00000007" + head + "00000000" + "00000000" + fattr},
		{"stale", rawCall(8, ProcGetattr, fhArgs(9)), "00000008" + head + "00000000" + "00000046"},
		{"garbage", rawCall(9, ProcGetattr, []byte{0, 0, 0, 1}), "00000009" + head + "00000004"},
		{"no such procedure", rawCall(10, 99, nil), "0000000a" + head + "00000003"},
		{"getattr again", rawCall(11, ProcGetattr, fhArgs(1)), "0000000b" + head + "00000000" + "00000000" + fattr},
	}
	buf := make([]byte, 65536)
	for _, c := range cases {
		if _, err := conn.Write(c.call); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(buf[:n]); got != c.want {
			t.Errorf("%s: reply\n  %s\nwant\n  %s", c.name, got, c.want)
		}
	}
}
