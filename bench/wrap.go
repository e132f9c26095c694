package main

import (
	"net"
	"sync/atomic"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/fsys"
	"s4/internal/s4fs"
	"s4/internal/s4rpc"
	"s4/internal/types"
)

// Benchmark-owned wrappers around the public seams between layers.
// Each counts always and records spans while tracing is on.

// ---- net.Listener: bytes on the wire, seen from the server ----

type countListener struct {
	net.Listener
	in, out atomic.Int64 // request and reply bytes
	conns   atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

// ---- disk.Device ----

type devCounts struct{ reads, readBytes, writes, writeBytes, ioNanos int64 }

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{a.reads - b.reads, a.readBytes - b.readBytes,
		a.writes - b.writes, a.writeBytes - b.writeBytes, a.ioNanos - b.ioNanos}
}

func (a devCounts) add(b devCounts) devCounts {
	return devCounts{a.reads + b.reads, a.readBytes + b.readBytes,
		a.writes + b.writes, a.writeBytes + b.writeBytes, a.ioNanos + b.ioNanos}
}

type tracedDevice struct {
	dev                                        disk.Device
	t                                          *tracer
	reads, readBytes, writes, writeBytes, nano atomic.Int64
}

func (d *tracedDevice) counts() devCounts {
	return devCounts{d.reads.Load(), d.readBytes.Load(), d.writes.Load(), d.writeBytes.Load(), d.nano.Load()}
}

func (d *tracedDevice) Capacity() int64 { return d.dev.Capacity() }

func (d *tracedDevice) ReadSectors(sector int64, buf []byte) error {
	s := d.t.beginDisk(kRead)
	err := d.dev.ReadSectors(sector, buf)
	end := d.t.now()
	d.t.endDisk(s, end)
	d.nano.Add(end - s.Start)
	d.reads.Add(1)
	d.readBytes.Add(int64(len(buf)))
	return err
}

func (d *tracedDevice) WriteSectors(sector int64, buf []byte) error {
	s := d.t.beginDisk(kWrite)
	err := d.dev.WriteSectors(sector, buf)
	end := d.t.now()
	d.t.endDisk(s, end)
	d.nano.Add(end - s.Start)
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(buf)))
	return err
}

// ---- s4rpc.Backend: the drive as the RPC server calls it ----

// rpcBackend wraps the methods the workloads reach; the rest pass
// through the embedded interface untimed.
type rpcBackend struct {
	s4rpc.Backend
	t *tracer
}

// enter opens the span for a request of kind issued by cred's client;
// the parent is that client's open client.op.
func (b *rpcBackend) enter(cred types.Cred, kind opKind) span {
	var parent uint64
	if c := int(cred.Client); c >= 1 && c <= maxClients && !cred.Admin {
		parent = b.t.clients[c-1].id.Load()
	}
	if parent == 0 {
		return b.t.enterDrive(span{})
	}
	return b.t.enterDrive(b.t.begin(spanRPCBack, kind, parent, parent))
}

func (b *rpcBackend) Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	kind := kRead
	if at != types.TimeNowest {
		kind = kHistRead
	}
	s := b.enter(cred, kind)
	defer b.t.endDrive(s)
	return b.Backend.Read(cred, id, off, n, at)
}

func (b *rpcBackend) Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error {
	s := b.enter(cred, kWrite)
	defer b.t.endDrive(s)
	return b.Backend.Write(cred, id, off, data)
}

func (b *rpcBackend) Sync(cred types.Cred) error {
	s := b.enter(cred, kSync)
	defer b.t.endDrive(s)
	return b.Backend.Sync(cred)
}

// ---- fsys.FileSys: s4fs as the NFS server calls it ----

type fsWrap struct {
	fsys.FileSys
	t *tracer
}

// enter opens an s4fs.op span under the client.op whose NFS call names
// handle h. Clients own disjoint directories and files, so the match is
// exact.
func (f *fsWrap) enter(h fsys.Handle, kind opKind) span {
	var parent uint64
	for i := range f.t.clients {
		c := &f.t.clients[i]
		if id := c.id.Load(); id != 0 && c.handle.Load() == uint64(h) {
			parent = id
			break
		}
	}
	if parent == 0 {
		return span{}
	}
	s := f.t.begin(spanFS, kind, parent, parent)
	f.t.fsOpenOp.Store(parent)
	f.t.fsOpen.Store(s.ID)
	return s
}

func (f *fsWrap) leave(s span) {
	f.t.fsOpen.Store(0)
	f.t.end(s)
}

func (f *fsWrap) Lookup(dir fsys.Handle, name string) (fsys.Handle, fsys.Attr, error) {
	s := f.enter(dir, kLookup)
	defer f.leave(s)
	return f.FileSys.Lookup(dir, name)
}

func (f *fsWrap) GetAttr(h fsys.Handle) (fsys.Attr, error) {
	s := f.enter(h, kGetAttr)
	defer f.leave(s)
	return f.FileSys.GetAttr(h)
}

func (f *fsWrap) Create(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	s := f.enter(dir, kCreate)
	defer f.leave(s)
	return f.FileSys.Create(dir, name, mode)
}

func (f *fsWrap) Mkdir(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	s := f.enter(dir, kMkdir)
	defer f.leave(s)
	return f.FileSys.Mkdir(dir, name, mode)
}

func (f *fsWrap) Remove(dir fsys.Handle, name string) error {
	s := f.enter(dir, kRemove)
	defer f.leave(s)
	return f.FileSys.Remove(dir, name)
}

func (f *fsWrap) Read(h fsys.Handle, off uint64, n int) ([]byte, error) {
	s := f.enter(h, kRead)
	defer f.leave(s)
	return f.FileSys.Read(h, off, n)
}

func (f *fsWrap) Write(h fsys.Handle, off uint64, data []byte) error {
	s := f.enter(h, kWrite)
	defer f.leave(s)
	return f.FileSys.Write(h, off, data)
}

// ---- s4fs.Backend: the drive as s4fs calls it ----

type fsBackend struct {
	be           s4fs.Backend
	t            *tracer
	calls, syncs atomic.Int64
}

func (b *fsBackend) enter(kind opKind) span {
	b.calls.Add(1)
	parent := b.t.fsOpen.Load()
	if parent == 0 {
		return b.t.enterDrive(span{})
	}
	return b.t.enterDrive(b.t.begin(spanFSBackend, kind, parent, b.t.fsOpenOp.Load()))
}

func (b *fsBackend) Create(acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	s := b.enter(kCreate)
	defer b.t.endDrive(s)
	return b.be.Create(acl, attr)
}

func (b *fsBackend) Delete(obj types.ObjectID) error {
	s := b.enter(kDelete)
	defer b.t.endDrive(s)
	return b.be.Delete(obj)
}

func (b *fsBackend) Read(obj types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	s := b.enter(kRead)
	defer b.t.endDrive(s)
	return b.be.Read(obj, off, n, at)
}

func (b *fsBackend) Write(obj types.ObjectID, off uint64, data []byte) error {
	s := b.enter(kWrite)
	defer b.t.endDrive(s)
	return b.be.Write(obj, off, data)
}

func (b *fsBackend) Truncate(obj types.ObjectID, size uint64) error {
	s := b.enter(kTruncate)
	defer b.t.endDrive(s)
	return b.be.Truncate(obj, size)
}

func (b *fsBackend) GetAttr(obj types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	s := b.enter(kGetAttr)
	defer b.t.endDrive(s)
	return b.be.GetAttr(obj, at)
}

func (b *fsBackend) SetAttr(obj types.ObjectID, attr []byte) error {
	s := b.enter(kSetAttr)
	defer b.t.endDrive(s)
	return b.be.SetAttr(obj, attr)
}

func (b *fsBackend) PCreate(name string, obj types.ObjectID) error {
	s := b.enter(kPCreate)
	defer b.t.endDrive(s)
	return b.be.PCreate(name, obj)
}

func (b *fsBackend) PMount(name string, at types.Timestamp) (types.ObjectID, error) {
	s := b.enter(kPMount)
	defer b.t.endDrive(s)
	return b.be.PMount(name, at)
}

func (b *fsBackend) Sync() error {
	b.syncs.Add(1)
	s := b.enter(kSync)
	defer b.t.endDrive(s)
	return b.be.Sync()
}

func (b *fsBackend) Status() (core.StatusInfo, error) { return b.be.Status() }
