package nfsv2

import (
	"testing"

	"s4/internal/fsys"
	"s4/internal/oncrpc"
	"s4/internal/xdr"
)

// reachedFS is what every noFS method panics with: the method's name.
type reachedFS string

// noFS is a FileSys no call may reach: every method panics.
type noFS struct{}

func (noFS) Root() fsys.Handle                                          { panic(reachedFS("Root")) }
func (noFS) Lookup(fsys.Handle, string) (fsys.Handle, fsys.Attr, error) { panic(reachedFS("Lookup")) }
func (noFS) GetAttr(fsys.Handle) (fsys.Attr, error)                     { panic(reachedFS("GetAttr")) }
func (noFS) SetAttr(fsys.Handle, fsys.SetAttr) (fsys.Attr, error)       { panic(reachedFS("SetAttr")) }
func (noFS) Create(fsys.Handle, string, uint32) (fsys.Handle, fsys.Attr, error) {
	panic(reachedFS("Create"))
}
func (noFS) Mkdir(fsys.Handle, string, uint32) (fsys.Handle, fsys.Attr, error) {
	panic(reachedFS("Mkdir"))
}
func (noFS) Symlink(fsys.Handle, string, string) (fsys.Handle, error) { panic(reachedFS("Symlink")) }
func (noFS) ReadLink(fsys.Handle) (string, error)                     { panic(reachedFS("ReadLink")) }
func (noFS) Remove(fsys.Handle, string) error                         { panic(reachedFS("Remove")) }
func (noFS) Rmdir(fsys.Handle, string) error                          { panic(reachedFS("Rmdir")) }
func (noFS) Rename(fsys.Handle, string, fsys.Handle, string) error    { panic(reachedFS("Rename")) }
func (noFS) Link(fsys.Handle, fsys.Handle, string) error              { panic(reachedFS("Link")) }
func (noFS) Read(fsys.Handle, uint64, int) ([]byte, error)            { panic(reachedFS("Read")) }
func (noFS) Write(fsys.Handle, uint64, []byte) error                  { panic(reachedFS("Write")) }
func (noFS) ReadDir(fsys.Handle) ([]fsys.DirEntry, error)             { panic(reachedFS("ReadDir")) }
func (noFS) StatFS() (fsys.Stat, error)                               { panic(reachedFS("StatFS")) }
func (noFS) Sync() error                                              { panic(reachedFS("Sync")) }

// served is what one call through a handler over noFS came to.
type served struct {
	stat    uint32
	results []byte
	d       *xdr.Decoder // the arguments' decoder, after the call
	reached reachedFS    // the FileSys method the call got to, if any
}

// serveNoFS runs one call's arguments through the NFS or MOUNT handler
// over noFS. A panic other than noFS's propagates.
func serveNoFS(prog, proc uint32, args []byte) (r served) {
	s := NewServer(noFS{}, "/s4")
	h := s.nfsHandler
	if prog == ProgMount {
		h = s.mountHandler
	}
	r.d = xdr.NewDecoder(args)
	var e xdr.Encoder
	defer func() {
		if p := recover(); p != nil {
			m, ok := p.(reachedFS)
			if !ok {
				panic(p)
			}
			r.reached = m
		}
	}()
	r.stat = h(proc, oncrpc.Cred{}, r.d, &e)
	r.results = e.Bytes()
	return r
}

// validCall is a well-formed argument list for one procedure.
type validCall struct {
	name       string
	prog, proc uint32
	args       []byte
}

// validCalls returns a well-formed argument list for each of the 15
// NFS procedures that take arguments, and for MOUNT's MNT and UMNT.
func validCalls() []validCall {
	build := func(parts ...func(*xdr.Encoder)) []byte {
		e := xdr.NewEncoder()
		for _, p := range parts {
			p(e)
		}
		return e.Bytes()
	}
	fh := func(e *xdr.Encoder) { encodeFH(e, 7) }
	name := func(e *xdr.Encoder) { e.String("name") }
	sattr := func(e *xdr.Encoder) { writeSattr(e, 0644) }
	words := func(ws ...uint32) func(*xdr.Encoder) {
		return func(e *xdr.Encoder) {
			for _, w := range ws {
				e.Uint32(w)
			}
		}
	}
	path := func(e *xdr.Encoder) { e.String("/s4") }
	data := func(e *xdr.Encoder) { e.Opaque([]byte("hello")) }
	return []validCall{
		{"GETATTR", ProgNFS, ProcGetattr, build(fh)},
		{"SETATTR", ProgNFS, ProcSetattr, build(fh, sattr)},
		{"LOOKUP", ProgNFS, ProcLookup, build(fh, name)},
		{"READLINK", ProgNFS, ProcReadlink, build(fh)},
		{"READ", ProgNFS, ProcRead, build(fh, words(0, 4096, 0))},
		{"WRITE", ProgNFS, ProcWrite, build(fh, words(0, 0, 0), data)},
		{"CREATE", ProgNFS, ProcCreate, build(fh, name, sattr)},
		{"REMOVE", ProgNFS, ProcRemove, build(fh, name)},
		{"RENAME", ProgNFS, ProcRename, build(fh, name, fh, name)},
		{"LINK", ProgNFS, ProcLink, build(fh, fh, name)},
		{"SYMLINK", ProgNFS, ProcSymlink, build(fh, name, path, sattr)},
		{"MKDIR", ProgNFS, ProcMkdir, build(fh, name, sattr)},
		{"RMDIR", ProgNFS, ProcRmdir, build(fh, name)},
		{"READDIR", ProgNFS, ProcReaddir, build(fh, words(0, 2048))},
		{"STATFS", ProgNFS, ProcStatfs, build(fh)},
		{"MNT", ProgMount, MountProcMnt, build(path)},
		{"UMNT", ProgMount, MountProcUmnt, build(path)},
	}
}

// TestTruncatedCallsAreGarbage cuts every procedure's well-formed
// argument list at every byte. Each cut must be answered GARBAGE_ARGS
// with no result bytes, before the FileSys is reached; the whole list
// must decode.
func TestTruncatedCallsAreGarbage(t *testing.T) {
	for _, c := range validCalls() {
		if r := serveNoFS(c.prog, c.proc, c.args); r.d.Err() != nil || r.reached == "" && r.stat != oncrpc.AcceptSuccess {
			t.Fatalf("%s: the whole argument list: stat %d, err %v", c.name, r.stat, r.d.Err())
		}
		for cut := 0; cut < len(c.args); cut++ {
			r := serveNoFS(c.prog, c.proc, c.args[:cut])
			if r.stat != oncrpc.AcceptGarbageArgs || len(r.results) != 0 || r.reached != "" {
				t.Errorf("%s cut at %d of %d bytes: stat %d, %d result bytes, reached %q",
					c.name, cut, len(c.args), r.stat, len(r.results), r.reached)
			}
		}
	}
}

// FuzzNFSArgs feeds fuzz-chosen procedures and argument bytes to the
// NFS handler over noFS. Nothing may panic but noFS, and a decoder that
// latched a failure must mean GARBAGE_ARGS with no results and no
// FileSys call.
func FuzzNFSArgs(f *testing.F) {
	for _, c := range validCalls() {
		if c.prog == ProgNFS {
			f.Add(uint8(c.proc), c.args)
		}
	}
	f.Fuzz(func(t *testing.T, proc uint8, args []byte) {
		r := serveNoFS(ProgNFS, uint32(proc%18), args)
		bad := r.d.Err() != nil
		if bad != (r.stat == oncrpc.AcceptGarbageArgs) {
			t.Fatalf("proc %d: decoder err %v, accept status %d", proc%18, r.d.Err(), r.stat)
		}
		if bad && (len(r.results) != 0 || r.reached != "") {
			t.Fatalf("proc %d: garbage arguments gave %d result bytes and reached %q", proc%18, len(r.results), r.reached)
		}
	})
}
