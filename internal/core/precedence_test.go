package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"s4/internal/audit"
	"s4/internal/types"
)

// precEnv is one cell of TestErrorPrecedence: a fresh drive holding
// alice's object A (5 bytes, written after t0), alice's object D
// (deleted after t0), the partition names "a" → A and "d" → D, and the
// cell's caller, target and drive state.
type precEnv struct {
	*testEnv
	a, dd, m, next types.ObjectID
	t0, t1         types.Timestamp

	cred types.Cred     // per-object ops: alice, or bob when unprivileged
	priv types.Cred     // admin ops: admin, or bob when unprivileged
	id   types.ObjectID // the object the cell names
	big  bool           // pass the op an argument out of bounds
}

// newPrecEnv builds the drive of one cell of TestErrorPrecedence.
func newPrecEnv(t *testing.T, cond string) *precEnv {
	e := newTestDrive(t)
	c := &precEnv{testEnv: e, m: 1 << 40}
	c.a = e.create(alice)
	c.dd = e.create(alice)
	for _, p := range []PartEntry{{"a", c.a}, {"d", c.dd}} {
		if err := e.d.PCreate(alice, p.Name, p.Obj); err != nil {
			t.Fatal(err)
		}
	}
	e.tick()
	c.t0 = e.d.Now()
	e.tick()
	e.write(alice, c.a, 0, []byte("hello"))
	if err := e.d.Delete(alice, c.dd); err != nil {
		t.Fatal(err)
	}
	e.tick()
	c.t1 = e.d.Now()
	c.next = e.d.nextOID
	c.cred, c.priv, c.id = alice, admin, c.a
	switch cond {
	case "closed":
		c.cred, c.priv, c.id = bob, bob, c.m
		if err := e.d.Close(); err != nil {
			t.Fatal(err)
		}
	case "reserved":
		c.id = types.AuditObject
	case "missing":
		c.id = c.m
	case "deleted":
		c.id = c.dd
	case "perm":
		c.cred, c.priv = bob, bob
	case "oversize":
		c.big = true
	case "nospace":
		for seg := int64(0); seg < e.d.log.NumSegments(); seg++ {
			if e.d.log.IsFree(seg) {
				e.d.log.MarkAllocated(seg)
			}
		}
	}
	return c
}

// name is the partition name of the cell's object: "a" and "d" exist,
// any other does not.
func (c *precEnv) name() string {
	switch {
	case c.big:
		return strings.Repeat("n", types.MaxNameLen+1)
	case c.id == c.a:
		return "a"
	case c.id == c.dd:
		return "d"
	}
	return "nosuch"
}

// payload is a write's data: 5 bytes, or one byte past MaxIO.
func (c *precEnv) payload() []byte {
	if c.big {
		return make([]byte, types.MaxIO+1)
	}
	return []byte("12345")
}

// attr is an attribute blob: 3 bytes, or one byte past MaxAttrLen.
func (c *precEnv) attr() []byte {
	if c.big {
		return make([]byte, types.MaxAttrLen+1)
	}
	return []byte("abc")
}

// index is an ACL slot: 0, or one past the table.
func (c *precEnv) index() int {
	if c.big {
		return types.MaxACLEntries
	}
	return 0
}

// sym names the IDs and times an audit record may carry.
func (c *precEnv) sym(v uint64) string {
	switch v {
	case uint64(c.a):
		return "A"
	case uint64(c.dd):
		return "D"
	case uint64(c.m):
		return "M"
	case uint64(c.next):
		return "N"
	case uint64(types.AuditObject):
		return "R"
	case uint64(c.t0):
		return "t0"
	case uint64(c.t1):
		return "t1"
	}
	return fmt.Sprint(v)
}

// record renders the audit records a cell left, checking each one's
// outcome against the error the op returned.
func (c *precEnv) record(recs []audit.Record, err error) string {
	if len(recs) != 1 {
		return fmt.Sprintf("%d records", len(recs))
	}
	r := recs[0]
	s := fmt.Sprintf("%v(%s,%s,%s", r.Op, c.sym(uint64(r.Obj)), c.sym(r.Offset), c.sym(r.Length))
	if len(r.Arg) > 48 {
		s += fmt.Sprintf(",%.1s…%d", r.Arg, len(r.Arg))
	} else if r.Arg != "" {
		s += "," + r.Arg
	}
	s += ")"
	if r.Errno != Errno(err) || r.OK != (err == nil) {
		s += fmt.Sprintf(" errno=%d ok=%v", r.Errno, r.OK)
	}
	return s
}

// errClass names err by the first types error it Is.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct {
		err  error
		name string
	}{
		{types.ErrDriveStopped, "stopped"}, {types.ErrReadOnly, "readonly"},
		{types.ErrNoObject, "noobject"}, {types.ErrPerm, "perm"},
		{types.ErrAdminOnly, "adminonly"}, {types.ErrTooLarge, "toolarge"},
		{types.ErrNoSpace, "nospace"}, {types.ErrInval, "inval"},
		{types.ErrExist, "exist"}, {types.ErrNameTooLong, "nametoolong"},
		{types.ErrNoVersion, "noversion"},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return err.Error()
}

// auditAfter returns the records audited after seq. A closed drive
// refuses AuditRead, and its checkpoint flushed everything older, so
// there they are decoded from the buffered tail.
func auditAfter(t *testing.T, d *Drive, seq uint64) []audit.Record {
	t.Helper()
	if !d.closed {
		recs, err := d.AuditRead(admin, seq+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	d.auditMu.Lock()
	defer d.auditMu.Unlock()
	var out []audit.Record
	for tail := d.auditBlk[audit.BlockHeaderSize:]; len(tail) > 0; {
		r, rest, err := audit.Decode(tail)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq > seq {
			out = append(out, r)
		}
		tail = rest
	}
	return out
}

// TestErrorPrecedence pins, for every drive op and each way a request
// can be refused, which error wins and the audit record the request
// leaves: "<error class> <op>(<obj>,<offset>,<length>[,<arg>])", or
// "<error class> 0 records". The conditions, each on a fresh drive:
//
//   - closed: the drive is closed, and bob names a missing object;
//   - reserved: alice names the audit object R;
//   - missing: alice names an object M that never existed;
//   - deleted: alice names her deleted object D;
//   - perm: bob names alice's object A, or runs an admin op;
//   - oversize: alice passes an argument out of bounds;
//   - nospace: every free segment is taken, leaving only the cleaner's
//     reserve.
//
// Admin ops run as the administrator, except as bob in the closed and
// perm cells. A blank cell does not apply to its op.
func TestErrorPrecedence(t *testing.T) {
	rows := []struct {
		name string
		call func(c *precEnv) error
		want [7]string // closed, reserved, missing, deleted, perm, oversize, nospace
	}{
		{"Create", func(c *precEnv) error { _, err := c.d.Create(c.cred, nil, c.attr()); return err }, [7]string{
			"stopped 0 records", "", "", "",
			"ok create(N,0,0)", "toolarge create(0,0,0)", "nospace create(0,0,0)"}},
		{"CreateWithID", func(c *precEnv) error { return c.d.CreateWithID(c.cred, c.id, nil, c.attr()) }, [7]string{
			"stopped 0 records", "inval create(R,0,0)", "ok create(M,0,0)", "exist create(D,0,0)",
			"exist create(A,0,0)", "toolarge create(A,0,0)", "exist create(A,0,0)"}},
		{"Delete", func(c *precEnv) error { return c.d.Delete(c.cred, c.id) }, [7]string{
			"stopped delete(M,0,0)", "readonly delete(R,0,0)", "noobject delete(M,0,0)", "noobject delete(D,0,0)",
			"perm delete(A,0,0)", "", "nospace delete(A,0,0)"}},
		{"Read", func(c *precEnv) error {
			n := uint64(5)
			if c.big {
				n = types.MaxIO + 1
			}
			_, err := c.d.Read(c.cred, c.id, 0, n, types.TimeNowest)
			return err
		}, [7]string{
			"stopped read(M,0,5)", "perm read(R,0,5)", "noobject read(M,0,5)", "noobject read(D,0,5)",
			"perm read(A,0,5)", "toolarge read(A,0,1048577)", "ok read(A,0,5)"}},
		{"ReadPast", func(c *precEnv) error { _, err := c.d.Read(c.cred, c.id, 0, 5, c.t0); return err }, [7]string{
			"stopped read(M,0,5)", "perm read(R,0,5)", "noobject read(M,0,5)", "ok read(D,0,5)",
			"perm read(A,0,5)", "", "ok read(A,0,5)"}},
		{"Write", func(c *precEnv) error { return c.d.Write(c.cred, c.id, 0, c.payload()) }, [7]string{
			"stopped write(M,0,5)", "readonly write(R,0,5)", "noobject write(M,0,5)", "noobject write(D,0,5)",
			"perm write(A,0,5)", "toolarge write(A,0,1048577)", "nospace write(A,0,5)"}},
		{"WriteEmpty", func(c *precEnv) error { return c.d.Write(c.cred, c.id, 0, nil) }, [7]string{
			"stopped write(M,0,0)", "readonly write(R,0,0)", "noobject write(M,0,0)", "noobject write(D,0,0)",
			"perm write(A,0,0)", "", "ok write(A,0,0)"}},
		{"Append", func(c *precEnv) error { _, err := c.d.Append(c.cred, c.id, c.payload()); return err }, [7]string{
			"stopped append(M,0,5)", "readonly append(R,0,5)", "noobject append(M,0,5)", "noobject append(D,0,5)",
			"perm append(A,5,5)", "toolarge append(A,0,1048577)", "nospace append(A,5,5)"}},
		{"AppendEmpty", func(c *precEnv) error { _, err := c.d.Append(c.cred, c.id, nil); return err }, [7]string{
			"stopped append(M,0,0)", "readonly append(R,0,0)", "noobject append(M,0,0)", "noobject append(D,0,0)",
			"perm append(A,5,0)", "", "ok append(A,5,0)"}},
		{"Truncate", func(c *precEnv) error { return c.d.Truncate(c.cred, c.id, 2) }, [7]string{
			"stopped truncate(M,2,0)", "readonly truncate(R,2,0)", "noobject truncate(M,2,0)", "noobject truncate(D,2,0)",
			"perm truncate(A,2,0)", "", "nospace truncate(A,2,0)"}},
		{"GetAttr", func(c *precEnv) error { _, err := c.d.GetAttr(c.cred, c.id, types.TimeNowest); return err }, [7]string{
			"stopped getattr(M,0,0)", "noobject getattr(R,0,0)", "noobject getattr(M,0,0)", "ok getattr(D,0,0)",
			"perm getattr(A,0,0)", "", "ok getattr(A,0,0)"}},
		{"SetAttr", func(c *precEnv) error { return c.d.SetAttr(c.cred, c.id, c.attr()) }, [7]string{
			"stopped setattr(M,0,3)", "readonly setattr(R,0,3)", "noobject setattr(M,0,3)", "noobject setattr(D,0,3)",
			"perm setattr(A,0,3)", "toolarge setattr(A,0,513)", "nospace setattr(A,0,3)"}},
		{"GetACLByUser", func(c *precEnv) error {
			_, err := c.d.GetACLByUser(c.cred, c.id, alice.User, types.TimeNowest)
			return err
		}, [7]string{
			"stopped getacl-user(M,100,0)", "noobject getacl-user(R,100,0)", "noobject getacl-user(M,100,0)", "ok getacl-user(D,100,0)",
			"perm getacl-user(A,100,0)", "", "ok getacl-user(A,100,0)"}},
		{"GetACLByIndex", func(c *precEnv) error {
			_, err := c.d.GetACLByIndex(c.cred, c.id, c.index(), types.TimeNowest)
			return err
		}, [7]string{
			"stopped getacl-index(M,0,0)", "noobject getacl-index(R,0,0)", "noobject getacl-index(M,0,0)", "ok getacl-index(D,0,0)",
			"perm getacl-index(A,0,0)", "inval getacl-index(A,32,0)", "ok getacl-index(A,0,0)"}},
		{"SetACL", func(c *precEnv) error {
			return c.d.SetACL(c.cred, c.id, c.index(), types.ACLEntry{User: bob.User, Perm: types.PermRead})
		}, [7]string{
			"stopped setacl(M,0,0)", "readonly setacl(R,0,0)", "noobject setacl(M,0,0)", "noobject setacl(D,0,0)",
			"perm setacl(A,0,0)", "inval setacl(A,32,0)", "nospace setacl(A,0,0)"}},
		{"PCreate", func(c *precEnv) error { return c.d.PCreate(c.cred, c.name()+"2", c.id) }, [7]string{
			"stopped pcreate(M,0,0,nosuch2)", "noobject pcreate(R,0,0,nosuch2)", "noobject pcreate(M,0,0,nosuch2)", "ok pcreate(D,0,0,d2)",
			"perm pcreate(A,0,0,a2)", "nametoolong pcreate(A,0,0,n…257)", "ok pcreate(A,0,0,a2)"}},
		{"PDelete", func(c *precEnv) error { return c.d.PDelete(c.cred, c.name()) }, [7]string{
			"stopped pdelete(0,0,0,nosuch)", "noobject pdelete(0,0,0,nosuch)", "noobject pdelete(0,0,0,nosuch)", "ok pdelete(0,0,0,d)",
			"perm pdelete(0,0,0,a)", "noobject pdelete(0,0,0,n…256)", "ok pdelete(0,0,0,a)"}},
		{"PList", func(c *precEnv) error { _, err := c.d.PList(c.cred, c.t0); return err }, [7]string{
			"stopped plist(0,0,0)", "", "", "",
			"perm plist(0,0,0)", "", "perm plist(0,0,0)"}},
		{"PMount", func(c *precEnv) error { _, err := c.d.PMount(c.cred, c.name(), types.TimeNowest); return err }, [7]string{
			"stopped pmount(0,0,0,nosuch)", "noobject pmount(0,0,0,nosuch)", "noobject pmount(0,0,0,nosuch)", "ok pmount(D,0,0,d)",
			"ok pmount(A,0,0,a)", "noobject pmount(0,0,0,n…256)", "ok pmount(A,0,0,a)"}},
		{"Sync", func(c *precEnv) error { return c.d.Sync(c.cred) }, [7]string{
			"stopped sync(0,0,0)", "", "", "",
			"ok sync(0,0,0)", "", "ok sync(0,0,0)"}},
		{"SyncObj", func(c *precEnv) error { return c.d.SyncObj(c.cred, c.id) }, [7]string{
			"stopped sync(M,0,0)", "noobject sync(R,0,0)", "noobject sync(M,0,0)", "ok sync(D,0,0)",
			"ok sync(A,0,0)", "", "ok sync(A,0,0)"}},
		{"Flush", func(c *precEnv) error { return c.d.Flush(c.priv, c.t0, c.t1) }, [7]string{
			"stopped flush(0,t0,t1)", "", "", "",
			"adminonly flush(0,t0,t1)", "", "ok flush(0,t0,t1)"}},
		{"FlushO", func(c *precEnv) error { return c.d.FlushO(c.priv, c.id, c.t0, c.t1) }, [7]string{
			"stopped flusho(M,t0,t1)", "noobject flusho(R,t0,t1)", "noobject flusho(M,t0,t1)", "ok flusho(D,t0,t1)",
			"adminonly flusho(A,t0,t1)", "", "ok flusho(A,t0,t1)"}},
		{"SetWindow", func(c *precEnv) error {
			w := 2 * time.Hour
			if c.big {
				w = -1
			}
			return c.d.SetWindow(c.priv, w)
		}, [7]string{
			"stopped setwindow(0,7200000000000,0)", "", "", "",
			"adminonly setwindow(0,7200000000000,0)", "inval setwindow(0,18446744073709551615,0)", "ok setwindow(0,7200000000000,0)"}},
		{"ListVersions", func(c *precEnv) error { _, err := c.d.ListVersions(c.cred, c.id); return err }, [7]string{
			"stopped listversions(M,0,0)", "noobject listversions(R,0,0)", "noobject listversions(M,0,0)", "ok listversions(D,0,0)",
			"perm listversions(A,0,0)", "", "ok listversions(A,0,0)"}},
		{"Revert", func(c *precEnv) error { return c.d.Revert(c.cred, c.id, c.t0) }, [7]string{
			"stopped revert(M,t0,0)", "readonly revert(R,t0,0)", "noobject revert(M,t0,0)", "ok revert(D,t0,0)",
			"perm revert(A,t0,0)", "", "nospace revert(A,t0,0)"}},
		{"AuditRead", func(c *precEnv) error { _, err := c.d.AuditRead(c.priv, 0, 0); return err }, [7]string{
			"stopped auditread(R,0,0)", "", "", "",
			"adminonly auditread(R,0,0)", "", "ok auditread(R,0,0)"}},
		{"Scrub", func(c *precEnv) error { _, err := c.d.Scrub(c.priv); return err }, [7]string{
			"stopped scrub(0,0,0)", "", "", "",
			"adminonly scrub(0,0,0)", "", "ok scrub(0,0,0)"}},
		{"SetPolicy", func(c *precEnv) error {
			p := types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true}
			if c.big {
				p.Mode = 99
			}
			return c.d.SetPolicy(c.priv, c.id, p)
		}, [7]string{
			"stopped setpolicy(M,0,0,mode=every-version delta=on window=drive)",
			"inval setpolicy(R,0,0,mode=every-version delta=on window=drive)",
			"ok setpolicy(M,0,0,mode=every-version delta=on window=drive)",
			"ok setpolicy(D,0,0,mode=every-version delta=on window=drive)",
			"adminonly setpolicy(A,0,0,mode=every-version delta=on window=drive)",
			"inval setpolicy(A,0,99,mode=mode(99) delta=on window=drive)",
			"ok setpolicy(A,0,0,mode=every-version delta=on window=drive)"}},
		{"GetPolicy", func(c *precEnv) error { _, _, err := c.d.GetPolicy(c.cred, c.id); return err }, [7]string{
			"stopped getpolicy(M,0,0)", "ok getpolicy(R,0,0)", "ok getpolicy(M,0,0)", "ok getpolicy(D,0,0)",
			"ok getpolicy(A,0,0)", "", "ok getpolicy(A,0,0)"}},
	}
	conds := []string{"closed", "reserved", "missing", "deleted", "perm", "oversize", "nospace"}
	for _, row := range rows {
		for ci, cond := range conds {
			want := row.want[ci]
			if want == "" {
				continue
			}
			t.Run(row.name+"/"+cond, func(t *testing.T) {
				c := newPrecEnv(t, cond)
				seq := c.d.auditSeq
				err := row.call(c)
				if got := errClass(err) + " " + c.record(auditAfter(t, c.d, seq), err); got != want {
					t.Errorf("got  %q\nwant %q", got, want)
				}
			})
		}
	}
}
