package s4rpc

import (
	"errors"
	"flag"
	"net"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

var (
	clientKey = []byte("client-1-secret-key")
	adminKey  = []byte("drive-administrator-key")
)

func startServer(t *testing.T) (addr string, drv *core.Drive) {
	t.Helper()
	clk := vclock.Wall{}
	dev := disk.New(disk.SmallDisk(64<<20), nil)
	drv, err := core.Format(dev, core.Options{Clock: clk, SegBlocks: 16, CheckpointBlocks: 16, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyring(adminKey)
	keys.AddClient(1, clientKey)
	srv := NewServer(drv, keys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = drv.Close()
	})
	return ln.Addr().String(), drv
}

func dialUser(t *testing.T, addr string, user types.UserID) *Client {
	t.Helper()
	c, err := Dial(addr, 1, user, clientKey, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestEndToEndReadWrite(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	id, err := c.Create(nil, []byte("attr-blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(id, 0, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, 0, 64, types.TimeNowest)
	if err != nil || string(got) != "over the wire" {
		t.Fatal(string(got), err)
	}
	ai, err := c.GetAttr(id, types.TimeNowest)
	if err != nil || string(ai.Attr) != "attr-blob" {
		t.Fatal(ai, err)
	}
	off, err := c.Append(id, []byte("!"))
	if err != nil || off != 13 {
		t.Fatal(off, err)
	}
	if err := c.Truncate(id, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Read(id, 0, 64, types.TimeNowest)
	if string(got) != "over" {
		t.Fatalf("after truncate: %q", got)
	}
}

func TestDriveStatsOverWire(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	id, err := c.Create(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(id, 0, []byte("pipeline")); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CommitBatches+st.SyncsCoalesced < 1 {
		t.Fatalf("no commit accounted after Sync: %+v", st)
	}
	if st.DeviceForces < 1 || st.LogAppends < 1 {
		t.Fatalf("pipeline counters empty over the wire: forces=%d appends=%d",
			st.DeviceForces, st.LogAppends)
	}
	if st.BytesWritten < int64(len("pipeline")) {
		t.Fatalf("BytesWritten=%d did not survive the wire", st.BytesWritten)
	}
}

func TestAuthRejectsBadKey(t *testing.T) {
	addr, _ := startServer(t)
	if _, err := Dial(addr, 1, 100, []byte("wrong key"), false); !errors.Is(err, types.ErrAuthFailed) {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := Dial(addr, 2, 100, clientKey, false); !errors.Is(err, types.ErrAuthFailed) {
		t.Fatalf("unknown client: %v", err)
	}
	if _, err := Dial(addr, 1, 0, clientKey, true); !errors.Is(err, types.ErrAuthFailed) {
		t.Fatalf("client key must not open an admin session: %v", err)
	}
}

func TestAdminCommandsNeedAdminSession(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	if err := c.SetWindow(time.Minute); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("setwindow on client session: %v", err)
	}
	if _, err := c.AuditRead(0, 10); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("auditread on client session: %v", err)
	}
	adminC, err := Dial(addr, 0, types.AdminUser, adminKey, true)
	if err != nil {
		t.Fatal(err)
	}
	defer adminC.Close()
	if err := adminC.SetWindow(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs, err := adminC.AuditRead(0, 100)
	if err != nil || len(recs) == 0 {
		t.Fatalf("admin audit read: %d records, %v", len(recs), err)
	}
}

func TestHistoryOverWire(t *testing.T) {
	addr, drv := startServer(t)
	c := dialUser(t, addr, 100)
	id, err := c.Create(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(id, 0, []byte("first version")); err != nil {
		t.Fatal(err)
	}
	tV1 := drv.Now()
	time.Sleep(2 * time.Millisecond)
	if err := c.Write(id, 0, []byte("SECOND vers.")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, 0, 64, tV1)
	if err != nil || string(got) != "first version" {
		t.Fatalf("time-based read over wire: %q %v", got, err)
	}
	vs, err := c.ListVersions(id, 0)
	if err != nil || len(vs) < 3 {
		t.Fatalf("versions: %d %v", len(vs), err)
	}
	if err := c.Revert(id, tV1); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Read(id, 0, 64, types.TimeNowest)
	if string(got) != "first version" {
		t.Fatalf("after revert: %q", got)
	}
}

func TestPartitionsOverWire(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	id, _ := c.Create(nil, nil)
	if err := c.PCreate("export", id); err != nil {
		t.Fatal(err)
	}
	got, err := c.PMount("export", types.TimeNowest)
	if err != nil || got != id {
		t.Fatal(got, err)
	}
	ps, err := c.PList(types.TimeNowest)
	if err != nil || len(ps) != 1 {
		t.Fatal(ps, err)
	}
	if err := c.PDelete("export"); err != nil {
		t.Fatal(err)
	}
}

func TestBatching(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	id, _ := c.Create(nil, nil)
	// Write + setattr + sync in one round trip (§4.1.2).
	resps, err := c.Batch([]Request{
		{Op: types.OpWrite, Obj: id, Offset: 0, Data: []byte("batched")},
		{Op: types.OpSetAttr, Obj: id, Attr: []byte("meta")},
		{Op: types.OpSync},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("%d sub-responses", len(resps))
	}
	for i, r := range resps {
		if r.Err() != nil {
			t.Fatalf("sub-op %d: %v", i, r.Err())
		}
	}
	got, _ := c.Read(id, 0, 16, types.TimeNowest)
	if string(got) != "batched" {
		t.Fatalf("batch result: %q", got)
	}
}

// TestBatchReportsRefusal proves a batch refused as a whole returns
// the refusal, not an empty list of replies with no error.
func TestBatchReportsRefusal(t *testing.T) {
	addr, done := fakeServer(t, func(conn *rawConn) {
		req, err := conn.readRequest()
		if err != nil {
			return
		}
		_, _ = conn.Write(responseFrame(t, &Response{Op: req.Op, ID: req.ID, Errno: core.Errno(types.ErrTooLarge)}))
	})
	defer done()
	c, err := DialConfig(Config{Addr: addr, Client: 1, User: 100, Key: clientKey, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resps, err := c.Batch([]Request{{Op: types.OpSync}}); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("refused batch returned %d replies and %v, want ErrTooLarge", len(resps), err)
	}
}

func TestPerRequestUserCannotEscalate(t *testing.T) {
	addr, _ := startServer(t)
	alice := dialUser(t, addr, 100)
	id, err := alice.Create(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A different user on the same client session is denied by ACL.
	resp, err := alice.Call(&Request{Op: types.OpRead, Obj: id, Length: 4, At: types.TimeNowest, User: 999})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err(), types.ErrPerm) {
		t.Fatalf("user 999 read: %v", resp.Err())
	}
}

// TestTable1Coverage pins the protocol to the paper's RPC list: every
// Table 1 operation must be dispatchable.
func TestTable1Coverage(t *testing.T) {
	table1 := []types.Op{
		types.OpCreate, types.OpDelete, types.OpRead, types.OpWrite,
		types.OpAppend, types.OpTruncate, types.OpGetAttr, types.OpSetAttr,
		types.OpGetACLByUser, types.OpGetACLByIndex, types.OpSetACL,
		types.OpPCreate, types.OpPDelete, types.OpPList, types.OpPMount,
		types.OpSync, types.OpFlush, types.OpFlushO, types.OpSetWindow,
	}
	addr, _ := startServer(t)
	admin, err := Dial(addr, 0, types.AdminUser, adminKey, true)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	for _, op := range table1 {
		req := &Request{Op: op, At: types.TimeNowest, Length: 1, Name: "t1", Data: []byte("x"), ACL: []types.ACLEntry{{}}}
		resp, err := admin.Call(req)
		if err != nil {
			t.Fatalf("%v: transport error %v", op, err)
		}
		if errors.Is(resp.Err(), types.ErrUnimplProto) {
			t.Fatalf("Table 1 op %v is not implemented", op)
		}
	}
	// Time-based column: ops the paper marks time-based accept At.
	for _, op := range table1 {
		if op.TimeBased() {
			if op != types.OpRead && op != types.OpGetAttr &&
				op != types.OpGetACLByUser && op != types.OpGetACLByIndex &&
				op != types.OpPList && op != types.OpPMount {
				t.Fatalf("unexpected time-based op %v", op)
			}
		}
	}
}

// TestRestartStatsOverWire reopens a checkpointed drive and confirms
// the restart observability counters — segment-index loads, replay
// entries, open duration — survive the wire intact. A client
// watching s4ctl stats is how an operator verifies instant restart
// actually engaged, so the wire must not flatten these fields.
func TestRestartStatsOverWire(t *testing.T) {
	dev := disk.New(disk.SmallDisk(64<<20), nil)
	opts := core.Options{Clock: vclock.Wall{}, SegBlocks: 16, CheckpointBlocks: 16, Window: time.Hour}
	drv, err := core.Format(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	cred := types.Cred{User: 100, Client: 1}
	acl := []types.ACLEntry{{User: types.EveryoneID, Perm: types.PermAll}}
	id, err := drv.Create(cred, acl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := drv.Write(cred, id, uint64(i)*512, []byte("restart stats payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := drv.Close(); err != nil { // checkpoints: persists the segment index
		t.Fatal(err)
	}

	drv, err = core.Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyring(adminKey)
	keys.AddClient(1, clientKey)
	srv := NewServer(drv, keys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = drv.Close()
	})

	c := dialUser(t, ln.Addr().String(), 100)
	st, _, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexLoads != 1 {
		t.Fatalf("clean reopen did not anchor at the segment index: loads=%d fallbacks=%d",
			st.IndexLoads, st.IndexFallbacks)
	}
	if st.IndexFallbacks != 0 {
		t.Fatalf("clean reopen fell back to full scan %d times", st.IndexFallbacks)
	}
	if st.OpenDuration <= 0 {
		t.Fatalf("OpenDuration=%v did not survive the wire", st.OpenDuration)
	}
	if st.RecoveryReplayEntries < 0 {
		t.Fatalf("RecoveryReplayEntries=%d negative over the wire", st.RecoveryReplayEntries)
	}
}

// TestServeFlagsApply: the serving flags s4d and s4gate share reach the
// server's bounds, and their defaults leave the server's own defaults.
func TestServeFlagsApply(t *testing.T) {
	for _, tc := range []struct {
		args                      []string
		workers, queue, connLimit int
		ioTimeout, drain          time.Duration
	}{
		{nil, 0, 0, 0, 30 * time.Second, 10 * time.Second},
		{[]string{"-workers", "3", "-queue", "5", "-conn-limit", "2", "-io-timeout", "1s", "-drain", "0"}, 3, 5, 2, time.Second, 0},
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		f := RegisterServeFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		srv := NewHandlerServer(nil, NewKeyring(adminKey))
		f.Apply(srv)
		if srv.workers != tc.workers || srv.queue != tc.queue || srv.connLimit != tc.connLimit || srv.ioTimeout != tc.ioTimeout || f.Drain != tc.drain {
			t.Errorf("%q: workers %d queue %d conn-limit %d io-timeout %v drain %v; want %d %d %d %v %v", tc.args,
				srv.workers, srv.queue, srv.connLimit, srv.ioTimeout, f.Drain, tc.workers, tc.queue, tc.connLimit, tc.ioTimeout, tc.drain)
		}
		if err := f.Stop(srv); err != nil {
			t.Errorf("%q: stopping a server that never served: %v", tc.args, err)
		}
	}
}
