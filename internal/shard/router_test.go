package shard

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

var (
	alice = types.Cred{User: 100, Client: 1}
	bob   = types.Cred{User: 200, Client: 2}
	admin = types.AdminCred()
)

// testCluster is an in-process N-shard router over drives formatted on
// recording fault disks, all on one virtual clock so cross-shard audit
// timestamps are comparable.
type testCluster struct {
	t      *testing.T
	router routed
	drives []*core.Drive
	recs   []*disk.Disk
	clk    *vclock.Virtual
	opts   core.Options
	closed bool

	// expected content per object for the recovery re-verification,
	// along with a credential allowed to read it.
	want map[types.ObjectID]expected
}

type expected struct {
	cred types.Cred
	data []byte
}

func newTestCluster(t *testing.T, shards int, mod ...func(*Options)) *testCluster {
	t.Helper()
	c := &testCluster{
		t:    t,
		clk:  vclock.NewVirtual(),
		want: make(map[types.ObjectID]expected),
	}
	c.opts = core.Options{
		Clock:            c.clk,
		SegBlocks:        16,
		CheckpointBlocks: 64,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	for i := 0; i < shards; i++ {
		rec := disk.New(disk.SmallDisk(64<<20), nil)
		d, err := core.Format(rec, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		rec.StartRecording()
		c.recs = append(c.recs, rec)
		c.drives = append(c.drives, d)
	}
	ropts := Options{}
	for _, m := range mod {
		m(&ropts)
	}
	r, err := New(c.handlers(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	c.router = routed{r}
	t.Cleanup(func() {
		if !c.closed {
			for _, d := range c.drives {
				_ = d.Close()
			}
		}
	})
	return c
}

func (c *testCluster) tick() { c.clk.Advance(time.Millisecond) }

// handlers returns the cluster's drives as shard handlers, for tests
// that build a router of their own.
func (c *testCluster) handlers() []s4rpc.Handler {
	hs := make([]s4rpc.Handler, len(c.drives))
	for i, d := range c.drives {
		hs[i] = s4rpc.Dispatch(d)
	}
	return hs
}

// routed gives the tests typed calls over Router.Do.
type routed struct{ *Router }

func (r routed) call(cred types.Cred, req s4rpc.Request) (*s4rpc.Response, error) {
	resp, err := r.Do(cred, &req)
	if resp == nil {
		resp = new(s4rpc.Response)
	}
	return resp, err
}

func (r routed) Create(cred types.Cred, acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	resp, err := r.call(cred, s4rpc.Request{Op: types.OpCreate, ACL: acl, Attr: attr})
	return resp.Obj, err
}

func (r routed) CreateWithID(cred types.Cred, id types.ObjectID, acl []types.ACLEntry, attr []byte) error {
	_, err := r.call(cred, s4rpc.Request{Op: types.OpCreate, Obj: id, ACL: acl, Attr: attr})
	return err
}

func (r routed) Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error {
	_, err := r.call(cred, s4rpc.Request{Op: types.OpWrite, Obj: id, Offset: off, Data: data})
	return err
}

func (r routed) Append(cred types.Cred, id types.ObjectID, data []byte) (uint64, error) {
	resp, err := r.call(cred, s4rpc.Request{Op: types.OpAppend, Obj: id, Data: data})
	return resp.Offset, err
}

func (r routed) Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	resp, err := r.call(cred, s4rpc.Request{Op: types.OpRead, Obj: id, Offset: off, Length: n, At: at})
	return resp.Data, err
}

func (r routed) Delete(cred types.Cred, id types.ObjectID) error {
	_, err := r.call(cred, s4rpc.Request{Op: types.OpDelete, Obj: id})
	return err
}

func (r routed) Sync(cred types.Cred) error {
	_, err := r.call(cred, s4rpc.Request{Op: types.OpSync})
	return err
}

func (r routed) SyncObj(cred types.Cred, id types.ObjectID) error {
	_, err := r.call(cred, s4rpc.Request{Op: types.OpSync, Obj: id})
	return err
}

func (r routed) Status() (core.StatusInfo, error) {
	resp, err := r.call(types.Cred{}, s4rpc.Request{Op: types.OpStatus})
	return resp.Status, err
}

func (r routed) ShardStats() (core.Stats, []core.Stats, error) {
	resp, err := r.call(types.Cred{}, s4rpc.Request{Op: types.OpStats})
	return resp.Stats, resp.ShardStats, err
}

func (r routed) AuditRead(cred types.Cred, fromSeq uint64, max int) ([]audit.Record, error) {
	resp, err := r.call(cred, s4rpc.Request{Op: types.OpAuditRead, Seq: fromSeq, Max: max})
	return resp.Records, err
}

func (c *testCluster) create(cred types.Cred, data []byte) types.ObjectID {
	c.t.Helper()
	id, err := c.router.Create(cred, nil, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	c.tick()
	if data != nil {
		if err := c.router.Write(cred, id, 0, data); err != nil {
			c.t.Fatal(err)
		}
		c.tick()
	}
	c.want[id] = expected{cred: cred, data: data}
	return id
}

// finale is the cross-shard invariant ending every router test: force
// durability through the router, then for each constituent drive check
// invariants live, crash it at several recorded write points (including
// the final image), and require every image to recover, pass
// CheckInvariants, and still serve the expected object contents. A
// router bug that corrupts only one shard has nowhere to hide.
func (c *testCluster) finale() {
	t := c.t
	t.Helper()
	if err := c.router.Sync(admin); err != nil {
		t.Fatalf("finale sync: %v", err)
	}
	endTime := c.drives[0].Now()
	for i, d := range c.drives {
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("shard %d live invariants: %v", i, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("shard %d close: %v", i, err)
		}
	}
	c.closed = true
	for i, rec := range c.recs {
		writes := rec.Writes()
		// The final image must serve everything; a handful of earlier
		// crash points must at least recover consistent.
		points := []int{writes, writes - writes/4, writes / 2, writes / 7}
		for pi, k := range points {
			if k < 0 || k > writes {
				continue
			}
			img, err := rec.ImageAt(k)
			if err != nil {
				t.Fatal(err)
			}
			iopts := c.opts
			iopts.Clock = vclock.NewVirtualAt(endTime.Time())
			drv, err := core.Open(img, iopts)
			if err != nil {
				t.Fatalf("shard %d crash point %d/%d: recovery failed: %v", i, k, writes, err)
			}
			if err := drv.CheckInvariants(); err != nil {
				t.Fatalf("shard %d crash point %d/%d: %v", i, k, writes, err)
			}
			if pi == 0 { // full image: contents must match
				c.verifyContents(drv, i)
			}
			if err := drv.Close(); err != nil {
				t.Fatalf("shard %d crash point %d/%d: close: %v", i, k, writes, err)
			}
		}
	}
}

// verifyContents checks every expected object the ring places on shard
// i against the recovered drive.
func (c *testCluster) verifyContents(drv *core.Drive, i int) {
	c.t.Helper()
	for id, want := range c.want {
		if c.router.ShardOf(id) != i {
			continue
		}
		if want.data == nil {
			if _, err := drv.GetAttr(want.cred, id, types.TimeNowest); err != nil {
				c.t.Fatalf("shard %d: recovered drive lost object %d: %v", i, id, err)
			}
			continue
		}
		got, err := drv.Read(want.cred, id, 0, uint64(len(want.data)), types.TimeNowest)
		if err != nil {
			c.t.Fatalf("shard %d: recovered read of object %d: %v", i, id, err)
		}
		if !bytes.Equal(got, want.data) {
			c.t.Fatalf("shard %d: recovered object %d holds %q, want %q", i, id, got, want.data)
		}
	}
}

// TestRouterRoutesByRing creates objects through the router and proves
// each lives on exactly the shard the ring names — present there,
// absent everywhere else — and that per-object reads, writes, syncs,
// and deletes reach it.
func TestRouterRoutesByRing(t *testing.T) {
	c := newTestCluster(t, 4)
	r := c.router

	ids := make([]types.ObjectID, 0, 24)
	for i := 0; i < 24; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, 64+i)
		ids = append(ids, c.create(alice, data))
	}

	seen := make(map[types.ObjectID]bool)
	perShard := make([]int, r.Shards())
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("router allocated object ID %d twice", id)
		}
		seen[id] = true
		owner := r.ShardOf(id)
		perShard[owner]++
		for s, d := range c.drives {
			_, err := d.GetAttr(alice, id, types.TimeNowest)
			if s == owner && err != nil {
				t.Fatalf("object %d missing from owning shard %d: %v", id, owner, err)
			}
			if s != owner && !errors.Is(err, types.ErrNoObject) {
				t.Fatalf("object %d leaked onto shard %d (want only shard %d): err=%v", id, s, owner, err)
			}
		}
		want := c.want[id]
		got, err := r.Read(alice, id, 0, uint64(len(want.data)), types.TimeNowest)
		if err != nil || !bytes.Equal(got, want.data) {
			t.Fatalf("routed read of object %d: %q, %v (want %q)", id, got, err, want.data)
		}
		if err := r.SyncObj(alice, id); err != nil {
			t.Fatalf("routed SyncObj(%d): %v", id, err)
		}
	}
	// 24 sequential IDs across 4 shards: the ring must not pile them
	// all on one shard (the FNV-without-finalizer failure mode).
	for s, n := range perShard {
		if n == len(ids) {
			t.Fatalf("all %d sequential objects landed on shard %d — ring degenerated", len(ids), s)
		}
	}

	// Delete routes to the owner too.
	victim := ids[len(ids)-1]
	if err := r.Delete(alice, victim); err != nil {
		t.Fatal(err)
	}
	c.tick()
	delete(c.want, victim)
	if _, err := r.Read(alice, victim, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("read of deleted object %d: %v, want ErrNoObject", victim, err)
	}

	c.finale()
}

// TestRouterAllocator pins the router-owned ID allocation rules: a
// second router over the same shards seeds past every live ID, and
// CreateWithID advances the allocator so later Creates cannot collide.
func TestRouterAllocator(t *testing.T) {
	c := newTestCluster(t, 4)

	var maxID types.ObjectID
	for i := 0; i < 8; i++ {
		if id := c.create(alice, []byte("gen1")); id > maxID {
			maxID = id
		}
	}

	// A rebuilt router (restart) must seed from shard NextOID
	// high-water marks, not from zero.
	r2, err := New(c.handlers(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := routed{r2}.Create(alice, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id <= maxID {
		t.Fatalf("rebuilt router reissued ID %d (live IDs reach %d)", id, maxID)
	}
	c.want[id] = expected{cred: alice}
	c.tick()

	// Explicit sparse ID: allocator jumps past it.
	sparse := id + 1000
	if err := c.router.CreateWithID(alice, sparse, nil, nil); err != nil {
		t.Fatal(err)
	}
	c.want[sparse] = expected{cred: alice}
	c.tick()
	next, err := c.router.Create(alice, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next <= sparse {
		t.Fatalf("Create issued %d after CreateWithID(%d) — allocator did not advance", next, sparse)
	}
	c.want[next] = expected{cred: alice}
	c.tick()

	// Reserved IDs are rejected, and duplicates stay duplicates.
	if err := c.router.CreateWithID(alice, types.FirstUserObject-1, nil, nil); !errors.Is(err, types.ErrInval) {
		t.Fatalf("CreateWithID(reserved): %v, want ErrInval", err)
	}
	if err := c.router.CreateWithID(alice, sparse, nil, nil); !errors.Is(err, types.ErrExist) {
		t.Fatalf("CreateWithID(duplicate): %v, want ErrExist", err)
	}

	c.finale()
}

// TestRouterScatterGather drives the whole-drive operations through a
// 4-shard router and checks the merge math: status occupancy sums,
// stats aggregate equals the per-shard breakdown's sum, and the merged
// audit stream is shard-tagged, time-ordered, and complete.
func TestRouterScatterGather(t *testing.T) {
	c := newTestCluster(t, 4)
	r := c.router

	creates := 0
	for i := 0; i < 16; i++ {
		cred := alice
		if i%2 == 1 {
			cred = bob
		}
		id := c.create(cred, bytes.Repeat([]byte{byte(i)}, 128))
		creates++
		if _, err := r.Append(cred, id, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		c.want[id] = expected{cred: cred, data: append(bytes.Repeat([]byte{byte(i)}, 128), []byte("tail")...)}
		c.tick()
	}
	if err := r.Sync(admin); err != nil {
		t.Fatalf("scatter Sync: %v", err)
	}

	// Status aggregation: occupancy counters sum across shards, and
	// NextOID is the cross-shard high-water mark.
	st, err := r.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	var wantObjects int
	var wantNext types.ObjectID
	for _, d := range c.drives {
		ds := d.Status()
		wantObjects += ds.Objects
		if ds.NextOID > wantNext {
			wantNext = ds.NextOID
		}
	}
	if st.Objects != wantObjects {
		t.Fatalf("aggregate Objects = %d, per-shard sum = %d", st.Objects, wantObjects)
	}
	if st.NextOID != wantNext {
		t.Fatalf("aggregate NextOID = %d, want max %d", st.NextOID, wantNext)
	}

	// Stats aggregation: the aggregate must equal the sum of the
	// breakdown, op by op — no double counting, no invention.
	agg, per, err := r.ShardStats()
	if err != nil {
		t.Fatalf("ShardStats: %v", err)
	}
	if len(per) != r.Shards() {
		t.Fatalf("breakdown has %d entries for %d shards", len(per), r.Shards())
	}
	var createSum, appendSum int64
	for _, s := range per {
		createSum += s.Ops[types.OpCreate]
		appendSum += s.Ops[types.OpAppend]
	}
	if agg.Ops[types.OpCreate] != createSum || int(createSum) != creates {
		t.Fatalf("aggregate creates=%d, breakdown sum=%d, issued=%d",
			agg.Ops[types.OpCreate], createSum, creates)
	}
	if agg.Ops[types.OpAppend] != appendSum {
		t.Fatalf("aggregate appends=%d, breakdown sum=%d", agg.Ops[types.OpAppend], appendSum)
	}

	// Audit merge: every user-object record carries the tag of the
	// shard the ring routes that object to, and the stream is ordered.
	recs, err := r.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatalf("AuditRead: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("merged audit stream is empty")
	}
	var perShardRecs int
	for i, rec := range recs {
		if rec.Shard < 0 || rec.Shard >= r.Shards() {
			t.Fatalf("record %d tagged with shard %d of %d", i, rec.Shard, r.Shards())
		}
		if rec.Obj >= types.FirstUserObject && rec.Op != types.OpCreate && rec.Shard != r.ShardOf(rec.Obj) {
			t.Fatalf("record %d: object %d op %v tagged shard %d, ring says %d",
				i, rec.Obj, rec.Op, rec.Shard, r.ShardOf(rec.Obj))
		}
		if rec.Obj >= types.FirstUserObject {
			perShardRecs++
		}
		if i > 0 && recs[i].Time < recs[i-1].Time {
			t.Fatalf("merged audit stream out of order at %d: %d after %d", i, recs[i].Time, recs[i-1].Time)
		}
	}
	if perShardRecs == 0 {
		t.Fatal("no user-object records in merged audit stream")
	}

	c.finale()
}

// faulty wraps one shard's handler with a kill switch: while tripped,
// every request fails with ErrBusy without reaching the drive.
func faulty(h s4rpc.Handler, fail *atomic.Bool) s4rpc.Handler {
	return func(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
		if fail.Load() {
			return nil, types.ErrBusy
		}
		return h(cred, req)
	}
}

// TestRouterPartialFailure pins the partial-failure contract: with one
// shard down, scatter-gather operations return the reachable shards'
// results beside a typed *ShardError naming the victim — never a hang,
// never a silently truncated result, never invented counters.
func TestRouterPartialFailure(t *testing.T) {
	c := newTestCluster(t, 4)

	// Rebuild the router with shard 2 behind a kill switch.
	const victim = 2
	var down atomic.Bool
	hs := c.handlers()
	hs[victim] = faulty(hs[victim], &down)
	rt, err := New(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := routed{rt}

	// Spread some objects first, while all shards are healthy.
	ids := make([]types.ObjectID, 0, 16)
	for i := 0; i < 16; i++ {
		id, err := r.Create(alice, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Write(alice, id, 0, []byte("pf")); err != nil {
			t.Fatal(err)
		}
		c.want[id] = expected{cred: alice, data: []byte("pf")}
		ids = append(ids, id)
		c.tick()
	}

	down.Store(true)

	// Sync: typed per-shard error, retryable cause visible through the
	// wrapping.
	err = r.Sync(admin)
	if err == nil {
		t.Fatal("Sync with a down shard reported success")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != victim {
		t.Fatalf("Sync error %v: want *ShardError for shard %d", err, victim)
	}
	if !errors.Is(err, types.ErrBusy) {
		t.Fatalf("Sync error %v does not unwrap to ErrBusy", err)
	}

	// AuditRead: reachable shards' records still arrive, none tagged
	// with the victim, and the error names the victim.
	recs, err := r.AuditRead(admin, 0, 0)
	if err == nil {
		t.Fatal("AuditRead with a down shard reported success")
	}
	if !errors.As(err, &se) || se.Shard != victim {
		t.Fatalf("AuditRead error %v: want *ShardError for shard %d", err, victim)
	}
	if len(recs) == 0 {
		t.Fatal("AuditRead returned no partial records from reachable shards")
	}
	for _, rec := range recs {
		if rec.Shard == victim {
			t.Fatalf("record for object %d tagged with the down shard", rec.Obj)
		}
	}

	// Stats: the victim's slot is zero, the aggregate counts only
	// reachable shards.
	agg, per, err := r.ShardStats()
	if err == nil {
		t.Fatal("ShardStats with a down shard reported success")
	}
	if n := per[victim].Ops[types.OpCreate]; n != 0 {
		t.Fatalf("down shard's breakdown slot fabricated %d creates", n)
	}
	var sum int64
	for i, s := range per {
		if i != victim {
			sum += s.Ops[types.OpCreate]
		}
	}
	if agg.Ops[types.OpCreate] != sum {
		t.Fatalf("aggregate creates=%d, reachable sum=%d", agg.Ops[types.OpCreate], sum)
	}

	// Per-object traffic to healthy shards is unaffected.
	for _, id := range ids {
		if r.ShardOf(id) == victim {
			continue
		}
		if _, err := r.Read(alice, id, 0, 2, types.TimeNowest); err != nil {
			t.Fatalf("read of object %d on healthy shard failed during partial outage: %v", id, err)
		}
	}

	// Recovery: clear the switch and the scatter path heals.
	down.Store(false)
	if err := r.Sync(admin); err != nil {
		t.Fatalf("Sync after shard recovery: %v", err)
	}

	c.finale()
}

// hang wraps a shard's handler so that Sync blocks until released,
// without touching the underlying drive.
func hang(h s4rpc.Handler, release chan struct{}) s4rpc.Handler {
	return func(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
		if req.Op == types.OpSync {
			<-release
			return new(s4rpc.Response), nil
		}
		return h(cred, req)
	}
}

// TestRouterFanTimeout proves a hung shard cannot wedge a
// scatter-gather operation: the slot times out, reports
// ErrShardTimeout for that shard, and the healthy shards' work
// completes.
func TestRouterFanTimeout(t *testing.T) {
	c := newTestCluster(t, 4)

	const victim = 1
	release := make(chan struct{})
	hs := c.handlers()
	hs[victim] = hang(hs[victim], release)
	rt, err := New(hs, Options{FanTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := routed{rt}
	defer close(release) // let the abandoned goroutine finish

	start := time.Now()
	err = r.Sync(admin)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Sync with a hung shard took %v — fan-out wedged", elapsed)
	}
	if !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("Sync error %v, want ErrShardTimeout", err)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != victim {
		t.Fatalf("timeout error %v: want *ShardError for shard %d", err, victim)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Errs) != 1 {
		t.Fatalf("timeout error %v: want exactly one failed shard", err)
	}

	c.finale()
}

// TestRouterFanOutDropsData: a fanned-out call may outlive Do, so no
// shard is handed the Data of the caller's request, which a server's
// decoded request shares with its pooled frame.
func TestRouterFanOutDropsData(t *testing.T) {
	c := newTestCluster(t, 2)
	hs := c.handlers()
	var saw atomic.Int32
	for i, h := range hs {
		hs[i] = func(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
			if req.Data != nil {
				saw.Add(1)
			}
			return h(cred, req)
		}
	}
	r, err := New(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Do(admin, &s4rpc.Request{Op: types.OpSync, Data: []byte("frame")}); err != nil {
		t.Fatal(err)
	}
	if n := saw.Load(); n != 0 {
		t.Fatalf("%d shards were handed the request's Data", n)
	}
	c.finale()
}
