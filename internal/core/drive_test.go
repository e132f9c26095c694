package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// testEnv bundles a drive on a virtual clock for deterministic tests.
type testEnv struct {
	t   *testing.T
	d   *Drive
	dev *disk.Disk
	clk *vclock.Virtual
}

func newTestDrive(t *testing.T, mod ...func(*Options)) *testEnv {
	t.Helper()
	clk := vclock.NewVirtual()
	return newTestDriveOn(t, disk.New(disk.SmallDisk(64<<20), clk), clk, mod...)
}

// newTestDriveOn formats dev with the test options and clk as the
// drive's clock.
func newTestDriveOn(t *testing.T, dev *disk.Disk, clk *vclock.Virtual, mod ...func(*Options)) *testEnv {
	t.Helper()
	opts := Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 64,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	for _, m := range mod {
		m(&opts)
	}
	d, err := Format(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return &testEnv{t: t, d: d, dev: dev, clk: clk}
}

// tick advances virtual time so consecutive ops land on distinct
// timestamps.
func (e *testEnv) tick() { e.clk.Advance(time.Millisecond) }

var (
	alice = types.Cred{User: 100, Client: 1}
	bob   = types.Cred{User: 200, Client: 2}
	admin = types.AdminCred()
)

func (e *testEnv) create(cred types.Cred) types.ObjectID {
	e.t.Helper()
	id, err := e.d.Create(cred, nil, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	e.tick()
	return id
}

func (e *testEnv) write(cred types.Cred, id types.ObjectID, off uint64, data []byte) {
	e.t.Helper()
	if err := e.d.Write(cred, id, off, data); err != nil {
		e.t.Fatal(err)
	}
	e.tick()
}

func (e *testEnv) read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) []byte {
	e.t.Helper()
	data, err := e.d.Read(cred, id, off, n, at)
	if err != nil {
		e.t.Fatal(err)
	}
	return data
}

func TestCreateWriteRead(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	msg := []byte("self-securing storage survives intrusions")
	e.write(alice, id, 0, msg)
	got := e.read(alice, id, 0, uint64(len(msg)), types.TimeNowest)
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q want %q", got, msg)
	}
	ai, err := e.d.GetAttr(alice, id, types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	if ai.Size != uint64(len(msg)) {
		t.Fatalf("size %d want %d", ai.Size, len(msg))
	}
}

func TestReadPastEOFAndHoles(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	// Sparse write at 10000 leaves a hole in block 0..1.
	e.write(alice, id, 10000, []byte("tail"))
	got := e.read(alice, id, 0, 20, types.TimeNowest)
	if !bytes.Equal(got, make([]byte, 20)) {
		t.Fatalf("hole read %v, want zeros", got)
	}
	got = e.read(alice, id, 10000, 100, types.TimeNowest)
	if string(got) != "tail" {
		t.Fatalf("tail read %q", got)
	}
	if data := e.read(alice, id, 20000, 5, types.TimeNowest); data != nil {
		t.Fatalf("read past EOF returned %d bytes", len(data))
	}
}

func TestOverwriteCreatesVersions(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("version one"))
	t1 := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("version TWO"))
	t2 := e.d.Now()
	e.tick()
	e.write(alice, id, 8, []byte("2.5"))

	if got := e.read(alice, id, 0, 64, types.TimeNowest); string(got) != "version 2.5" {
		t.Fatalf("current = %q", got)
	}
	if got := e.read(alice, id, 0, 64, t2); string(got) != "version TWO" {
		t.Fatalf("at t2 = %q", got)
	}
	if got := e.read(alice, id, 0, 64, t1); string(got) != "version one" {
		t.Fatalf("at t1 = %q", got)
	}
}

func TestReadBeforeCreation(t *testing.T) {
	e := newTestDrive(t)
	before := e.d.Now()
	e.tick()
	id := e.create(alice)
	e.write(alice, id, 0, []byte("x"))
	_, err := e.d.Read(alice, id, 0, 1, before)
	if !errors.Is(err, types.ErrNoVersion) {
		t.Fatalf("read before creation: %v", err)
	}
}

func TestPartialBlockOverwrite(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	base := bytes.Repeat([]byte{'a'}, 3*types.BlockSize)
	e.write(alice, id, 0, base)
	tBase := e.d.Now()
	e.tick()
	e.write(alice, id, 100, []byte("XYZ"))
	cur := e.read(alice, id, 0, uint64(len(base)), types.TimeNowest)
	want := append([]byte(nil), base...)
	copy(want[100:], "XYZ")
	if !bytes.Equal(cur, want) {
		t.Fatal("partial overwrite merged wrong")
	}
	old := e.read(alice, id, 0, uint64(len(base)), tBase)
	if !bytes.Equal(old, base) {
		t.Fatal("old version disturbed by partial overwrite")
	}
}

func TestAppend(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	off1, err := e.d.Append(alice, id, []byte("hello "))
	if err != nil || off1 != 0 {
		t.Fatal(off1, err)
	}
	e.tick()
	off2, err := e.d.Append(alice, id, []byte("world"))
	if err != nil || off2 != 6 {
		t.Fatal(off2, err)
	}
	if got := e.read(alice, id, 0, 64, types.TimeNowest); string(got) != "hello world" {
		t.Fatalf("appended = %q", got)
	}
}

// TestEmptyWriteIsChecked: a zero-length Write or Append is refused for
// exactly the reasons a non-empty one is — the caller learns nothing
// about an object it may not write, and an object that is missing or
// deleted stays so — and once admitted it makes no version, pays no
// throttle, and an Append reports where its data would have landed.
func TestEmptyWriteIsChecked(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, make([]byte, 12345))
	gone := e.create(alice)
	if err := e.d.Delete(alice, gone); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.GetAttr(bob, id, types.TimeNowest); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob's GetAttr: %v, want ErrPerm", err)
	}
	if off, err := e.d.Append(bob, id, nil); !errors.Is(err, types.ErrPerm) || off != 0 {
		t.Fatalf("bob's empty Append: offset %d, %v; want 0, ErrPerm", off, err)
	}
	if err := e.d.Write(bob, id, 0, nil); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob's empty Write: %v, want ErrPerm", err)
	}
	for _, c := range []struct {
		id   types.ObjectID
		want error
	}{{1 << 40, types.ErrNoObject}, {gone, types.ErrNoObject}, {types.AuditObject, types.ErrReadOnly}} {
		if err := e.d.Write(alice, c.id, 0, nil); !errors.Is(err, c.want) {
			t.Errorf("empty Write to %v: %v, want %v", c.id, err, c.want)
		}
		if _, err := e.d.Append(alice, c.id, nil); !errors.Is(err, c.want) {
			t.Errorf("empty Append to %v: %v, want %v", c.id, err, c.want)
		}
	}

	// Admitted, even with only the cleaner's reserve left: no version.
	for seg := int64(0); seg < e.d.log.NumSegments(); seg++ {
		if e.d.log.IsFree(seg) {
			e.d.log.MarkAllocated(seg)
		}
	}
	before, err := e.d.GetAttr(alice, id, types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.d.Write(alice, id, 0, nil); err != nil {
		t.Fatalf("empty Write: %v", err)
	}
	if off, err := e.d.Append(alice, id, nil); err != nil || off != 12345 {
		t.Fatalf("empty Append: offset %d, %v; want 12345, nil", off, err)
	}
	if err := e.d.Write(alice, id, 0, []byte{1}); !errors.Is(err, types.ErrNoSpace) {
		t.Fatalf("a one-byte write with no space: %v, want ErrNoSpace", err)
	}
	if after, err := e.d.GetAttr(alice, id, types.TimeNowest); err != nil || after.Version != before.Version {
		t.Fatalf("empty writes moved the version %d → %d (%v)", before.Version, after.Version, err)
	}
}

func TestTruncateShrinkAndHistory(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	data := bytes.Repeat([]byte{'z'}, 2*types.BlockSize+100)
	e.write(alice, id, 0, data)
	tFull := e.d.Now()
	e.tick()
	before, err := e.d.ListVersions(alice, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.d.Truncate(alice, id, 10); err != nil {
		t.Fatal(err)
	}
	e.tick()
	ai, _ := e.d.GetAttr(alice, id, types.TimeNowest)
	if ai.Size != 10 {
		t.Fatalf("size after truncate = %d", ai.Size)
	}
	// An unaligned shrink is two versions: the truncate, then the write
	// that rewrites the retained tail block zero-truncated.
	after, err := e.d.ListVersions(alice, id)
	if err != nil {
		t.Fatal(err)
	}
	if made := after[:len(after)-len(before)]; len(made) != 2 || made[1].Op != "truncate" || made[0].Op != "write" {
		t.Fatalf("an unaligned shrink made versions %+v, want a truncate then a write", made)
	}
	// The full version remains readable.
	old := e.read(alice, id, 0, uint64(len(data)), tFull)
	if !bytes.Equal(old, data) {
		t.Fatal("pre-truncate version lost")
	}
}

func TestTruncateThenExtendZeroes(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, bytes.Repeat([]byte{'q'}, 100))
	e.tick()
	if err := e.d.Truncate(alice, id, 10); err != nil {
		t.Fatal(err)
	}
	e.tick()
	// Extending must not resurrect the stale 'q' bytes beyond 10.
	e.write(alice, id, 50, []byte("end"))
	got := e.read(alice, id, 0, 53, types.TimeNowest)
	want := make([]byte, 53)
	copy(want, bytes.Repeat([]byte{'q'}, 10))
	copy(want[50:], "end")
	if !bytes.Equal(got, want) {
		t.Fatalf("stale bytes resurrected: %q", got)
	}
}

func TestTruncateGrow(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("abc"))
	e.tick()
	if err := e.d.Truncate(alice, id, 1000); err != nil {
		t.Fatal(err)
	}
	ai, _ := e.d.GetAttr(alice, id, types.TimeNowest)
	if ai.Size != 1000 {
		t.Fatalf("size = %d", ai.Size)
	}
	got := e.read(alice, id, 0, 1000, types.TimeNowest)
	if string(got[:3]) != "abc" || !bytes.Equal(got[3:], make([]byte, 997)) {
		t.Fatal("grow-truncate content wrong")
	}
}

func TestDeleteAndHistoryRead(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("incriminating evidence"))
	tAlive := e.d.Now()
	e.tick()
	if err := e.d.Delete(alice, id); err != nil {
		t.Fatal(err)
	}
	e.tick()
	// Current reads fail...
	if _, err := e.d.Read(alice, id, 0, 10, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("read of deleted object: %v", err)
	}
	// ...but the history pool still has it (alice holds Recovery).
	got := e.read(alice, id, 0, 64, tAlive)
	if string(got) != "incriminating evidence" {
		t.Fatalf("history read = %q", got)
	}
	// Double delete fails.
	if err := e.d.Delete(alice, id); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSetGetAttr(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	if err := e.d.SetAttr(alice, id, []byte("nfs-attrs-v1")); err != nil {
		t.Fatal(err)
	}
	tV1 := e.d.Now()
	e.tick()
	if err := e.d.SetAttr(alice, id, []byte("nfs-attrs-v2")); err != nil {
		t.Fatal(err)
	}
	ai, _ := e.d.GetAttr(alice, id, types.TimeNowest)
	if string(ai.Attr) != "nfs-attrs-v2" {
		t.Fatalf("attr = %q", ai.Attr)
	}
	ai, err := e.d.GetAttr(alice, id, tV1)
	if err != nil {
		t.Fatal(err)
	}
	if string(ai.Attr) != "nfs-attrs-v1" {
		t.Fatalf("attr@t1 = %q", ai.Attr)
	}
	if err := e.d.SetAttr(alice, id, bytes.Repeat([]byte{1}, types.MaxAttrLen+1)); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized attr: %v", err)
	}
}

func TestACLEnforcement(t *testing.T) {
	e := newTestDrive(t)
	id, err := e.d.Create(alice, []types.ACLEntry{
		{User: alice.User, Perm: types.PermAll},
		{User: bob.User, Perm: types.PermRead},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.tick()
	e.write(alice, id, 0, []byte("shared"))

	// Bob can read but not write or delete.
	if got := e.read(bob, id, 0, 6, types.TimeNowest); string(got) != "shared" {
		t.Fatalf("bob read = %q", got)
	}
	if err := e.d.Write(bob, id, 0, []byte("x")); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob write: %v", err)
	}
	if err := e.d.Delete(bob, id); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob delete: %v", err)
	}
	// A stranger can do nothing.
	carol := types.Cred{User: 300, Client: 3}
	if _, err := e.d.Read(carol, id, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("carol read: %v", err)
	}
	// Admin bypasses.
	if _, err := e.d.Read(admin, id, 0, 1, types.TimeNowest); err != nil {
		t.Fatalf("admin read: %v", err)
	}
}

func TestRecoveryFlagGatesHistory(t *testing.T) {
	e := newTestDrive(t)
	// Bob has read but NOT the Recovery flag.
	id, err := e.d.Create(alice, []types.ACLEntry{
		{User: alice.User, Perm: types.PermAll},
		{User: bob.User, Perm: types.PermRead},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.tick()
	e.write(alice, id, 0, []byte("v1"))
	tV1 := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("v2"))

	// Bob reads the current version fine.
	if got := e.read(bob, id, 0, 2, types.TimeNowest); string(got) != "v2" {
		t.Fatalf("bob current = %q", got)
	}
	// But the overwritten version is recovery data.
	if _, err := e.d.Read(bob, id, 0, 2, tV1); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob history read: %v", err)
	}
	// Alice (Recovery set) and the admin may.
	if got := e.read(alice, id, 0, 2, tV1); string(got) != "v1" {
		t.Fatalf("alice history = %q", got)
	}
	if got := e.read(admin, id, 0, 2, tV1); string(got) != "v1" {
		t.Fatalf("admin history = %q", got)
	}
}

func TestUserCanHideHistoryWithSetACL(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("embarrassing draft"))
	tDraft := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("final text ok now"))
	e.tick()
	// Alice clears her own Recovery flag (§3.4): old versions become
	// admin-only.
	if err := e.d.SetACL(alice, id, 0, types.ACLEntry{
		User: alice.User, Perm: types.PermAll &^ types.PermRecover,
	}); err != nil {
		t.Fatal(err)
	}
	e.tick()
	if _, err := e.d.Read(alice, id, 0, 32, tDraft); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("alice can still read hidden history: %v", err)
	}
	if got := e.read(admin, id, 0, 18, tDraft); string(got) != "embarrassing draft" {
		t.Fatalf("admin blocked from hidden history: %q", got)
	}
}

func TestGetACL(t *testing.T) {
	e := newTestDrive(t)
	id, err := e.d.Create(alice, []types.ACLEntry{
		{User: alice.User, Perm: types.PermAll},
		{User: types.EveryoneID, Perm: types.PermRead},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.tick()
	got, err := e.d.GetACLByIndex(alice, id, 1, types.TimeNowest)
	if err != nil || got.User != types.EveryoneID {
		t.Fatal(got, err)
	}
	if _, err := e.d.GetACLByIndex(alice, id, 9, types.TimeNowest); !errors.Is(err, types.ErrInval) {
		t.Fatalf("out-of-range ACL index: %v", err)
	}
	// Effective perms for bob = Everyone.
	eff, err := e.d.GetACLByUser(bob, id, bob.User, types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Perm.Has(types.PermRead) || eff.Perm.Has(types.PermWrite) {
		t.Fatalf("effective perm = %v", eff.Perm)
	}
}

func TestReservedObjectsProtected(t *testing.T) {
	e := newTestDrive(t)
	if err := e.d.Write(alice, types.AuditObject, 0, []byte("scrub the log")); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("audit object write: %v", err)
	}
	if err := e.d.Write(alice, types.PartitionTable, 0, []byte("x")); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("partition table write: %v", err)
	}
	if err := e.d.Delete(alice, types.AuditObject); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("audit object delete: %v", err)
	}
	if _, err := e.d.Read(alice, types.AuditObject, 0, 16, types.TimeNowest); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("audit object read by user: %v", err)
	}
}

func TestPartitions(t *testing.T) {
	e := newTestDrive(t)
	root := e.create(alice)
	if err := e.d.PCreate(alice, "export", root); err != nil {
		t.Fatal(err)
	}
	e.tick()
	id, err := e.d.PMount(bob, "export", types.TimeNowest)
	if err != nil || id != root {
		t.Fatal(id, err)
	}
	list, err := e.d.PList(bob, types.TimeNowest)
	if err != nil || len(list) != 1 || list[0].Name != "export" {
		t.Fatalf("plist = %+v err=%v", list, err)
	}
	// Duplicate name rejected.
	if err := e.d.PCreate(alice, "export", root); !errors.Is(err, types.ErrExist) {
		t.Fatalf("dup pcreate: %v", err)
	}
	tBefore := e.d.Now()
	e.tick()
	if err := e.d.PDelete(alice, "export"); err != nil {
		t.Fatal(err)
	}
	e.tick()
	if _, err := e.d.PMount(bob, "export", types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("pmount after pdelete: %v", err)
	}
	// The partition table is versioned: admin sees the old mapping.
	id, err = e.d.PMount(admin, "export", tBefore)
	if err != nil || id != root {
		t.Fatalf("time-based pmount: %v %v", id, err)
	}
	// Bob cannot create names over alice's object.
	if err := e.d.PCreate(bob, "steal", root); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("bob pcreate over alice's object: %v", err)
	}
}

func TestSetWindowAdminOnly(t *testing.T) {
	e := newTestDrive(t)
	if err := e.d.SetWindow(alice, time.Minute); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("user setwindow: %v", err)
	}
	if err := e.d.SetWindow(admin, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := e.d.Window(); got != 30*time.Minute {
		t.Fatalf("window = %v", got)
	}
	if err := e.d.SetWindow(admin, -time.Second); !errors.Is(err, types.ErrInval) {
		t.Fatalf("negative window: %v", err)
	}
}

func TestAuditRecordsEveryRequest(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("data"))
	_ = e.read(alice, id, 0, 4, types.TimeNowest)
	_, _ = e.d.Read(bob, id, 0, 4, types.TimeNowest) // denied, still audited
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	recs, err := e.d.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawCreate, sawWrite, sawRead, sawDenied bool
	for _, r := range recs {
		switch {
		case r.Op == types.OpCreate && r.OK:
			sawCreate = true
		case r.Op == types.OpWrite && r.OK && r.Obj == id:
			sawWrite = true
		case r.Op == types.OpRead && r.OK && r.User == alice.User:
			sawRead = true
		case r.Op == types.OpRead && !r.OK && r.User == bob.User:
			sawDenied = true
		}
	}
	if !sawCreate || !sawWrite || !sawRead || !sawDenied {
		t.Fatalf("audit coverage: create=%v write=%v read=%v denied=%v (%d recs)",
			sawCreate, sawWrite, sawRead, sawDenied, len(recs))
	}
	// Sequence numbers strictly increase.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatal("audit seq not increasing")
		}
	}
	// Users cannot read the audit log.
	if _, err := e.d.AuditRead(alice, 0, 0); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("user audit read: %v", err)
	}
}

func TestLargeFileIndirection(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.ObjectCacheCount = 4 })
	id := e.create(alice)
	// Large enough that the inode checkpoint needs overflow blocks.
	data := bytes.Repeat([]byte{0xCD}, 300*types.BlockSize)
	for off := 0; off < len(data); off += types.MaxIO {
		end := off + types.MaxIO
		if end > len(data) {
			end = len(data)
		}
		e.write(alice, id, uint64(off), data[off:end])
	}
	// Force checkpoint + eviction by creating other objects.
	for i := 0; i < 10; i++ {
		other := e.create(alice)
		e.write(alice, other, 0, []byte("filler"))
	}
	for off := 0; off < len(data); off += types.MaxIO {
		end := off + types.MaxIO
		if end > len(data) {
			end = len(data)
		}
		got := e.read(alice, id, uint64(off), uint64(end-off), types.TimeNowest)
		if !bytes.Equal(got, data[off:end]) {
			t.Fatal("large object corrupted across checkpoint/eviction")
		}
	}
}

func TestObjectCacheEviction(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.ObjectCacheCount = 8 })
	var ids []types.ObjectID
	contents := map[types.ObjectID][]byte{}
	for i := 0; i < 50; i++ {
		id := e.create(alice)
		data := bytes.Repeat([]byte{byte(i)}, 100+i)
		e.write(alice, id, 0, data)
		ids = append(ids, id)
		contents[id] = data
	}
	for _, id := range ids {
		got := e.read(alice, id, 0, 1024, types.TimeNowest)
		if !bytes.Equal(got, contents[id]) {
			t.Fatalf("object %v corrupted after eviction", id)
		}
	}
	// Every per-object op trims the object cache once it is done, history
	// reads and ACL ops included.
	written := e.d.Now()
	e.tick()
	ops := []struct {
		name string
		op   func(id types.ObjectID) error
	}{
		{"GetAttr", func(id types.ObjectID) error {
			_, err := e.d.GetAttr(alice, id, types.TimeNowest)
			return err
		}},
		{"GetACLByUser", func(id types.ObjectID) error {
			_, err := e.d.GetACLByUser(alice, id, bob.User, types.TimeNowest)
			return err
		}},
		{"GetACLByIndex", func(id types.ObjectID) error {
			_, err := e.d.GetACLByIndex(alice, id, 0, types.TimeNowest)
			return err
		}},
		{"SetACL", func(id types.ObjectID) error {
			return e.d.SetACL(alice, id, 1, types.ACLEntry{User: bob.User, Perm: types.PermRead})
		}},
		{"ListVersions", func(id types.ObjectID) error {
			_, err := e.d.ListVersions(alice, id)
			return err
		}},
		{"Read(at)", func(id types.ObjectID) error {
			got, err := e.d.Read(alice, id, 0, 1024, written)
			if err == nil && !bytes.Equal(got, contents[id]) {
				err = fmt.Errorf("read %d bytes, want the %d written", len(got), len(contents[id]))
			}
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for _, id := range ids {
				if err := op.op(id); err != nil {
					t.Fatalf("%v: %v", id, err)
				}
				if n := int(e.d.loaded.Load()); n > e.d.opts.ObjectCacheCount {
					t.Fatalf("%v left %d inodes loaded, want <= ObjectCacheCount %d", id, n, e.d.opts.ObjectCacheCount)
				}
			}
		})
	}
}

func TestMaxIOLimit(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	if err := e.d.Write(alice, id, 0, make([]byte, types.MaxIO+1)); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	if _, err := e.d.Read(alice, id, 0, types.MaxIO+1, types.TimeNowest); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized read: %v", err)
	}
}

func TestClosedDriveRejectsOps(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.Create(alice, nil, nil); !errors.Is(err, types.ErrDriveStopped) {
		t.Fatalf("create on closed drive: %v", err)
	}
	if err := e.d.Write(alice, id, 0, []byte("x")); !errors.Is(err, types.ErrDriveStopped) {
		t.Fatalf("write on closed drive: %v", err)
	}
}

func TestStatusAndStats(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, bytes.Repeat([]byte{1}, 5*types.BlockSize))
	e.write(alice, id, 0, bytes.Repeat([]byte{2}, 5*types.BlockSize))
	st := e.d.Status()
	if st.Objects < 2 { // partition table + user object
		t.Fatalf("objects = %d", st.Objects)
	}
	if st.HistoryBlocks < 5 {
		t.Fatalf("history blocks = %d, want >= 5 (overwritten data)", st.HistoryBlocks)
	}
	ds := e.d.GetStats()
	if ds.Ops[types.OpWrite] != 2 || ds.VersionsMade == 0 {
		t.Fatalf("stats = %+v", ds)
	}
}

// TestErrnoTable pins the one errno mapping both ways: every code with
// an error of its own maps back to itself, every other code decodes to
// one stable sentinel that encodes as 255, and wrapping does not change
// an error's code.
func TestErrnoTable(t *testing.T) {
	defined := 0
	for c := 0; c <= 255; c++ {
		err := ErrnoToError(uint8(c))
		if err == errRemote {
			if got := Errno(err); got != 255 {
				t.Fatalf("code %d has no error, yet its sentinel encodes as %d", c, got)
			}
			continue
		}
		defined++
		if got := Errno(err); got != uint8(c) {
			t.Fatalf("Errno(ErrnoToError(%d)) = %d", c, got)
		}
		if c != 0 {
			if got := Errno(fmt.Errorf("wrapped: %w", err)); got != uint8(c) {
				t.Fatalf("wrapped code %d encodes as %d", c, got)
			}
		}
	}
	if defined != 19 {
		t.Fatalf("%d codes defined, want 19 (0 and ErrNoObject..ErrBusy): a new code is one errnos entry", defined)
	}
	if !errors.Is(ErrnoToError(200), ErrnoToError(201)) {
		t.Fatal("unknown codes decode to different errors")
	}
}

// TestWriteAppendDoNotRetainData pins the contract s4rpc's server leans
// on when it hands the drive a slice of a pooled network buffer: Write
// and Append copy what they keep, so the caller may reuse data the
// moment they return.
func TestWriteAppendDoNotRetainData(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	const n = 2*types.BlockSize + 100 // whole blocks and a partial tail
	want := bytes.Repeat([]byte("retain?"), n/7+1)[:n]
	data := append([]byte(nil), want...)
	if err := e.d.Write(alice, id, 0, data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	tail := []byte("appended tail")
	app := append([]byte(nil), tail...)
	if _, err := e.d.Append(alice, id, app); err != nil {
		t.Fatal(err)
	}
	for i := range app {
		app[i] = 0xEE
	}
	check := func(when string) {
		t.Helper()
		got := e.read(alice, id, 0, n+uint64(len(tail)), types.TimeNowest)
		if !bytes.Equal(got[:n], want) || !bytes.Equal(got[n:], tail) {
			t.Fatalf("%s: the drive kept a reference to the caller's buffer", when)
		}
	}
	check("from the cache")
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(e.dev, e.d.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	e.d = reopened
	check("from the device")
}
