package shard

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

// The gate's two keyrings: the one its own clients present, and the one
// it presents to every shard (as client gateShardID, like s4gate's
// -gateid/-gatekey/-backend-adminkey).
var (
	gateAdminKey  = []byte("gate-admin-key")
	gateClientKey = []byte("gate-client-key")
	shardAdminKey = []byte("shard-admin-key")
	shardGateKey  = []byte("shard-gate-key")
)

const gateShardID types.ClientID = 7

// gateStack is the stack s4gate runs, in one process: an s4rpc.Server
// per drive on loopback, a Remote session pair per shard, a router over
// the remotes, and an s4rpc.Server in front of the router.
type gateStack struct {
	t      *testing.T
	clk    *vclock.Virtual
	drives []*core.Drive
	srvs   []*s4rpc.Server
	router *Router
	addr   string // the gate's listen address
}

func serveOn(t *testing.T, srv *s4rpc.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })
	return ln.Addr().String()
}

// newGateStack starts shards drives behind a gate. backendAdmin selects
// whether the gate holds the shards' admin key.
func newGateStack(t *testing.T, shards int, backendAdmin bool) *gateStack {
	t.Helper()
	g := &gateStack{t: t, clk: vclock.NewVirtual()}
	opts := core.Options{
		Clock: g.clk, SegBlocks: 16, CheckpointBlocks: 64,
		Window: time.Hour, BlockCacheBytes: 1 << 20,
	}
	var adminKey []byte
	if backendAdmin {
		adminKey = shardAdminKey
	}
	backends := make([]s4rpc.Handler, shards)
	for i := 0; i < shards; i++ {
		d, err := core.Format(disk.New(disk.SmallDisk(64<<20), nil), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		keys := s4rpc.NewKeyring(shardAdminKey)
		keys.AddClient(gateShardID, shardGateKey)
		srv := s4rpc.NewServer(d, keys)
		addr := serveOn(t, srv)
		rm, err := NewRemote(RemoteConfig{
			Addr: addr, Client: gateShardID, Key: shardGateKey, AdminKey: adminKey,
			DialTimeout: time.Second, CallTimeout: 5 * time.Second,
			MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rm.Close() })
		g.drives = append(g.drives, d)
		g.srvs = append(g.srvs, srv)
		backends[i] = rm.Do
	}
	r, err := New(backends, Options{FanTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.router = r
	keys := s4rpc.NewKeyring(gateAdminKey)
	keys.AddClient(1, gateClientKey)
	g.addr = serveOn(t, s4rpc.NewHandlerServer(r.Do, keys))
	return g
}

func (g *gateStack) dial(user types.UserID) *s4rpc.Client {
	g.t.Helper()
	c, err := s4rpc.Dial(g.addr, 1, user, gateClientKey, false)
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { _ = c.Close() })
	return c
}

func (g *gateStack) dialAdmin() *s4rpc.Client {
	g.t.Helper()
	c, err := s4rpc.Dial(g.addr, 0, types.AdminUser, gateAdminKey, true)
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { _ = c.Close() })
	return c
}

func (g *gateStack) tick() { g.clk.Advance(time.Millisecond) }

// must fails the test on err, naming the step.
func must(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestGateEndToEnd drives every op of the single-drive protocol through
// the stack s4gate runs — s4rpc.Client → s4rpc.Server over the router →
// a Remote per shard → an s4rpc.Server per drive — and checks where each
// landed: per-object ops on the ring's shard, the partition table on
// shard 0, whole-drive ops on every shard with their replies merged.
func TestGateEndToEnd(t *testing.T) {
	g := newGateStack(t, 2, true)
	c := g.dial(100)
	adm := g.dialAdmin()
	acl := []types.ACLEntry{{User: 100, Perm: types.PermAll}}

	// Objects on both shards.
	ids := make([]types.ObjectID, 0, 8)
	for i := 0; i < 8; i++ {
		id, err := c.Create(acl, []byte("attr"))
		must(t, "create", err)
		ids = append(ids, id)
		g.tick()
	}
	var onShard [2][]types.ObjectID
	for _, id := range ids {
		s := g.router.ShardOf(id)
		onShard[s] = append(onShard[s], id)
		if _, err := g.drives[s].GetAttr(types.AdminCred(), id, types.TimeNowest); err != nil {
			t.Fatalf("object %d not on its ring shard %d: %v", id, s, err)
		}
		if _, err := g.drives[1-s].GetAttr(types.AdminCred(), id, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
			t.Fatalf("object %d also on shard %d: %v", id, 1-s, err)
		}
	}
	if len(onShard[0]) == 0 || len(onShard[1]) == 0 {
		t.Fatalf("8 objects did not reach both shards: %v", onShard)
	}

	// Table 1's per-object ops.
	id := ids[0]
	must(t, "write", c.Write(id, 0, []byte("hello gate")))
	g.tick()
	beforeAppend := g.drives[0].Now()
	g.tick()
	off, err := c.Append(id, []byte("!"))
	if err != nil || off != 10 {
		t.Fatalf("append: off %d, %v", off, err)
	}
	g.tick()
	got, err := c.Read(id, 0, 64, types.TimeNowest)
	if err != nil || string(got) != "hello gate!" {
		t.Fatalf("read: %q, %v", got, err)
	}
	got, err = c.Read(id, 0, 64, beforeAppend)
	if err != nil || string(got) != "hello gate" {
		t.Fatalf("time-based read: %q, %v", got, err)
	}
	must(t, "truncate", c.Truncate(id, 5))
	g.tick()
	must(t, "setattr", c.SetAttr(id, []byte("attr2")))
	g.tick()
	ai, err := c.GetAttr(id, types.TimeNowest)
	if err != nil || ai.Size != 5 || string(ai.Attr) != "attr2" {
		t.Fatalf("getattr: %+v, %v", ai, err)
	}
	must(t, "setacl", c.SetACL(id, 1, types.ACLEntry{User: 200, Perm: types.PermRead}))
	g.tick()
	e, err := c.GetACLByUser(id, 200, types.TimeNowest)
	if err != nil || e.Perm != types.PermRead {
		t.Fatalf("getacl-user: %+v, %v", e, err)
	}
	e, err = c.GetACLByIndex(id, 1, types.TimeNowest)
	if err != nil || e.User != 200 {
		t.Fatalf("getacl-index: %+v, %v", e, err)
	}
	must(t, "syncobj", c.SyncObj(id))
	must(t, "sync", c.Sync())

	// ListVersions and Revert (the recovery extensions).
	vs, err := c.ListVersions(id, 0)
	if err != nil || len(vs) < 5 {
		t.Fatalf("listversions: %d versions, %v", len(vs), err)
	}
	if vs2, err := c.ListVersions(id, 2); err != nil || len(vs2) != 2 {
		t.Fatalf("listversions max 2: %d versions, %v", len(vs2), err)
	}
	must(t, "revert", c.Revert(id, beforeAppend))
	g.tick()
	if got, err := c.Read(id, 0, 64, types.TimeNowest); err != nil || string(got) != "hello gate" {
		t.Fatalf("read after revert: %q, %v", got, err)
	}

	// A batch: a write, a read, and a read of a missing object, which
	// fails in its own slot.
	other := ids[1]
	res, err := c.Batch([]s4rpc.Request{
		{Op: types.OpWrite, Obj: other, Data: []byte("batched")},
		{Op: types.OpRead, Obj: other, Length: 64, At: types.TimeNowest},
		{Op: types.OpRead, Obj: 1 << 40, Length: 1, At: types.TimeNowest},
	})
	if err != nil || len(res) != 3 {
		t.Fatalf("batch: %d replies, %v", len(res), err)
	}
	if res[0].Err() != nil || res[1].Err() != nil || string(res[1].Data) != "batched" {
		t.Fatalf("batch slots 0/1: %v, %v, %q", res[0].Err(), res[1].Err(), res[1].Data)
	}
	if !errors.Is(res[2].Err(), types.ErrNoObject) {
		t.Fatalf("batch slot 2: %v, want ErrNoObject", res[2].Err())
	}
	g.tick()

	// The partition table lives on shard 0. (The drive checks that the
	// named object exists, so it must be one the ring places there.)
	home := onShard[0][0]
	must(t, "pcreate", c.PCreate("home", home))
	g.tick()
	must(t, "pcreate", c.PCreate("scratch", home))
	g.tick()
	ps, err := c.PList(types.TimeNowest)
	if err != nil || len(ps) != 2 {
		t.Fatalf("plist: %+v, %v", ps, err)
	}
	if ps0, err := g.drives[0].PList(types.AdminCred(), types.TimeNowest); err != nil || len(ps0) != 2 {
		t.Fatalf("shard 0 partition table: %+v, %v", ps0, err)
	}
	if ps1, err := g.drives[1].PList(types.AdminCred(), types.TimeNowest); err != nil || len(ps1) != 0 {
		t.Fatalf("shard 1 partition table: %+v, %v", ps1, err)
	}
	if m, err := c.PMount("home", types.TimeNowest); err != nil || m != home {
		t.Fatalf("pmount: %d, %v (want %d)", m, err, home)
	}
	must(t, "pdelete", c.PDelete("scratch"))
	g.tick()

	// The drive-wide policy reaches every shard; per-object policies go
	// to the owner.
	def := types.Policy{Mode: types.ModeOnClose}
	must(t, "setpolicy 0", adm.SetPolicy(0, def))
	for i, d := range g.drives {
		if p, _, err := d.GetPolicy(types.AdminCred(), 0); err != nil || p != def {
			t.Fatalf("shard %d default policy %+v, %v; want %+v", i, p, err, def)
		}
	}
	if p, _, err := c.GetPolicy(0); err != nil || p != def {
		t.Fatalf("getpolicy 0: %+v, %v", p, err)
	}
	own := types.Policy{DeltaEnabled: true}
	must(t, "setpolicy obj", adm.SetPolicy(other, own))
	if p, isOwn, err := c.GetPolicy(other); err != nil || p != own || !isOwn {
		t.Fatalf("getpolicy %d: %+v own=%v, %v", other, p, isOwn, err)
	}
	if p, isOwn, err := c.GetPolicy(id); err != nil || p != def || isOwn {
		t.Fatalf("getpolicy %d: %+v own=%v, %v (want the inherited default)", id, p, isOwn, err)
	}
	g.tick()

	// The merged audit stream: the gate's records tagged with the
	// owning shard, and all in time order. (This test's own direct
	// calls on the drives audit under client 0.)
	recs, err := adm.AuditRead(0, 0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("auditread: %d records, %v", len(recs), err)
	}
	var tagged int
	for i, rec := range recs {
		if rec.Client == gateShardID && rec.Obj >= types.FirstUserObject {
			if rec.Shard != g.router.ShardOf(rec.Obj) {
				t.Fatalf("record %d: object %d op %v tagged shard %d, ring says %d",
					i, rec.Obj, rec.Op, rec.Shard, g.router.ShardOf(rec.Obj))
			}
			tagged++
		}
		if i > 0 && rec.Time < recs[i-1].Time {
			t.Fatalf("merged audit stream out of order at %d", i)
		}
	}
	if tagged == 0 {
		t.Fatal("no per-object records in the merged audit stream")
	}

	// Scrub, the per-shard stats breakdown, and summed status.
	sr, err := adm.Scrub()
	if err != nil || sr.Corrupt != 0 {
		t.Fatalf("scrub: %+v, %v", sr, err)
	}
	agg, per, err := c.ShardStats()
	if err != nil || len(per) != 2 {
		t.Fatalf("shardstats: %d shards, %v", len(per), err)
	}
	var writes, scrubs int64
	for i, s := range per {
		writes += s.Ops[types.OpWrite]
		scrubs += s.ScrubPasses
		if s.ScrubPasses != 1 {
			t.Fatalf("shard %d ran %d scrub passes, want 1", i, s.ScrubPasses)
		}
	}
	if agg.Ops[types.OpWrite] != writes || agg.ScrubPasses != scrubs || writes == 0 {
		t.Fatalf("aggregate writes %d scrubs %d, breakdown %d / %d",
			agg.Ops[types.OpWrite], agg.ScrubPasses, writes, scrubs)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var objects int
	for _, d := range g.drives {
		objects += d.Status().Objects
	}
	if st.Objects != objects || st.Window != time.Hour {
		t.Fatalf("status: %d objects, window %v; shards hold %d", st.Objects, st.Window, objects)
	}

	// The admin ops, and the admin gate in front of them.
	now := g.drives[0].Now()
	must(t, "flusho", adm.FlushO(other, 0, now))
	must(t, "flush", adm.Flush(0, now))
	if err := c.SetWindow(2 * time.Hour); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("non-admin setwindow: %v, want ErrAdminOnly", err)
	}
	must(t, "setwindow", adm.SetWindow(2*time.Hour))
	for i, d := range g.drives {
		if w := d.Status().Window; w != 2*time.Hour {
			t.Fatalf("shard %d window %v after setwindow", i, w)
		}
	}

	// Delete routes to the owner.
	must(t, "delete", c.Delete(other))
	if _, err := c.Read(other, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("read of deleted object: %v", err)
	}

	// One shard down: whole-drive ops fail, the other shard's objects
	// still read.
	down := 1
	must(t, "close shard", g.srvs[down].Close())
	if _, err := c.Status(); err == nil {
		t.Fatal("status with a shard down reported success")
	}
	if err := c.Sync(); err == nil {
		t.Fatal("sync with a shard down reported success")
	}
	for _, oid := range onShard[1-down] {
		if oid == other {
			continue
		}
		if _, err := c.Read(oid, 0, 1, types.TimeNowest); err != nil {
			t.Fatalf("read of object %d on the healthy shard: %v", oid, err)
		}
	}

	for i, d := range g.drives {
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}

	// A gate with no shard admin key: Status and Stats fan out on the
	// gate's client session, so an admin asks them too; an admin
	// mutation has no session to ride and fails with ErrAuthFailed.
	t.Run("no backend admin key", func(t *testing.T) {
		g := newGateStack(t, 2, false)
		adm := g.dialAdmin()
		if _, err := adm.Status(); err != nil {
			t.Fatalf("admin status: %v", err)
		}
		if _, per, err := adm.ShardStats(); err != nil || len(per) != 2 {
			t.Fatalf("admin shardstats: %d shards, %v", len(per), err)
		}
		if err := adm.SetWindow(2 * time.Hour); !errors.Is(err, types.ErrAuthFailed) {
			t.Fatalf("admin setwindow: %v, want ErrAuthFailed", err)
		}
	})
}

// TestGateListVersionsHonoursMax lists 10 versions of an object with
// 30,000 of them. The shard must see the bound: the whole list does not
// fit in one frame.
func TestGateListVersionsHonoursMax(t *testing.T) {
	g := newGateStack(t, 2, true)
	c := g.dial(100)
	id, err := c.Create([]types.ACLEntry{{User: 100, Perm: types.PermAll}}, nil)
	must(t, "create", err)
	d := g.drives[g.router.ShardOf(id)]
	cred := types.Cred{User: 100, Client: gateShardID}
	attr := bytes.Repeat([]byte{'a'}, 8)
	for i := 0; i < 30000; i++ {
		must(t, "setattr", d.SetAttr(cred, id, attr))
	}
	vs, err := c.ListVersions(id, 10)
	if err != nil || len(vs) != 10 {
		t.Fatalf("listversions max 10 through the gate: %d versions, %v", len(vs), err)
	}
}
