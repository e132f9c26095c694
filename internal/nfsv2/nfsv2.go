// Package nfsv2 implements the NFS version 2 protocol (RFC 1094) and
// its MOUNT companion over ONC RPC/UDP, serving any fsys.FileSys.
//
// This is the protocol surface of the paper's Fig. 1: pointed at an
// s4fs.FS it is the "S4-enhanced NFS server" (Fig. 1b); pointed at a
// ufs.FS it is the conventional baseline server. NFSv2 was chosen by
// the authors because its lack of write caching keeps the drive's
// per-operation picture complete (§4.1.2); the paper also notes NFS
// carries no real authentication — the AUTH_UNIX uid is recorded but
// not verified, which is precisely why the drive's own security
// perimeter (internal/s4rpc) matters.
package nfsv2

import (
	"encoding/binary"
	"errors"
	"sort"

	"s4/internal/fsys"
	"s4/internal/oncrpc"
	"s4/internal/types"
	"s4/internal/xdr"
)

// Program numbers.
const (
	ProgNFS    = 100003
	VersNFS    = 2
	ProgMount  = 100005
	VersMount  = 1
	FHSize     = 32
	MaxData    = 8192
	MaxName    = 255
	MaxPath    = 1024
	CookieSize = 4
)

// NFSv2 procedure numbers.
const (
	ProcNull     = 0
	ProcGetattr  = 1
	ProcSetattr  = 2
	ProcLookup   = 4
	ProcReadlink = 5
	ProcRead     = 6
	ProcWrite    = 8
	ProcCreate   = 9
	ProcRemove   = 10
	ProcRename   = 11
	ProcLink     = 12
	ProcSymlink  = 13
	ProcMkdir    = 14
	ProcRmdir    = 15
	ProcReaddir  = 16
	ProcStatfs   = 17
)

// MOUNT procedure numbers.
const (
	MountProcNull = 0
	MountProcMnt  = 1
	MountProcUmnt = 3
)

// NFS status codes.
const (
	OK          = 0
	ErrPerm     = 1
	ErrNoEnt    = 2
	ErrIO       = 5
	ErrAcces    = 13
	ErrExist    = 17
	ErrNotDir   = 20
	ErrIsDir    = 21
	ErrNoSpc    = 28
	ErrNameLong = 63
	ErrNotEmpty = 66
	ErrStale    = 70
)

func statusOf(err error) uint32 {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, fsys.ErrNotFound):
		return ErrNoEnt
	case errors.Is(err, fsys.ErrExist):
		return ErrExist
	case errors.Is(err, fsys.ErrNotDir):
		return ErrNotDir
	case errors.Is(err, fsys.ErrIsDir):
		return ErrIsDir
	case errors.Is(err, fsys.ErrNotEmpty):
		return ErrNotEmpty
	case errors.Is(err, fsys.ErrStale):
		return ErrStale
	case errors.Is(err, fsys.ErrNoSpace):
		return ErrNoSpc
	case errors.Is(err, fsys.ErrPerm), errors.Is(err, types.ErrPerm):
		return ErrAcces
	case errors.Is(err, types.ErrNameTooLong):
		return ErrNameLong
	}
	return ErrIO
}

// encodeFH packs a handle into the 32-byte NFSv2 file handle.
func encodeFH(e *xdr.Encoder, h fsys.Handle) {
	var fh [FHSize]byte
	binary.BigEndian.PutUint64(fh[:8], uint64(h))
	copy(fh[8:], "S4NFSv2-FHANDLE")
	e.OpaqueFixed(fh[:])
}

// decodeFH reads a handle encodeFH wrote: its first 8 bytes, then the
// rest of the 32, which are not checked.
func decodeFH(d *xdr.Decoder) fsys.Handle {
	h := fsys.Handle(d.Uint64())
	d.OpaqueFixed(FHSize - 8)
	return h
}

// ftype values of RFC 1094.
func ftypeOf(t fsys.FileType) uint32 {
	switch t {
	case fsys.TypeReg:
		return 1 // NFREG
	case fsys.TypeDir:
		return 2 // NFDIR
	case fsys.TypeSymlink:
		return 5 // NFLNK
	}
	return 0 // NFNON
}

func encodeFattr(e *xdr.Encoder, h fsys.Handle, a fsys.Attr) {
	e.Uint32(ftypeOf(a.Type))
	mode := a.Mode
	switch a.Type {
	case fsys.TypeDir:
		mode |= 0040000
	case fsys.TypeSymlink:
		mode |= 0120000
	default:
		mode |= 0100000
	}
	e.Uint32(mode)
	e.Uint32(a.Nlink)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint32(uint32(a.Size))
	e.Uint32(types.BlockSize) // blocksize
	e.Uint32(0)               // rdev
	e.Uint32(uint32((a.Size + types.BlockSize - 1) / types.BlockSize))
	e.Uint32(1)         // fsid
	e.Uint32(uint32(h)) // fileid
	sec := uint32(a.Mtime.Time().Unix())
	usec := uint32(a.Mtime.Time().Nanosecond() / 1000)
	e.Uint32(sec) // atime
	e.Uint32(usec)
	e.Uint32(sec) // mtime
	e.Uint32(usec)
	csec := uint32(a.Ctime.Time().Unix())
	e.Uint32(csec) // ctime
	e.Uint32(uint32(a.Ctime.Time().Nanosecond() / 1000))
}

// sattr is the settable attribute struct; 0xFFFFFFFF means "don't set".
type sattr struct {
	mode, uid, gid, size uint32
}

func decodeSattr(d *xdr.Decoder) sattr {
	s := sattr{d.Uint32(), d.Uint32(), d.Uint32(), d.Uint32()}
	d.OpaqueFixed(4 * 4) // atime, mtime (2 words each), ignored
	return s
}

func (s sattr) apply() fsys.SetAttr {
	const unset = 0xFFFFFFFF
	var sa fsys.SetAttr
	if s.mode != unset {
		m := s.mode & 07777
		sa.Mode = &m
	}
	if s.uid != unset {
		u := s.uid
		sa.UID = &u
	}
	if s.gid != unset {
		g := s.gid
		sa.GID = &g
	}
	if s.size != unset {
		sz := uint64(s.size)
		sa.Size = &sz
	}
	return sa
}

// Server serves NFSv2 + MOUNT for one FileSys export.
type Server struct {
	fs     fsys.FileSys
	export string
	rpc    *oncrpc.Server
}

// NewServer exports fs under the given mount path (e.g. "/s4").
func NewServer(fs fsys.FileSys, export string) *Server {
	s := &Server{fs: fs, export: export, rpc: oncrpc.NewServer()}
	s.rpc.Register(ProgNFS, VersNFS, s.nfsHandler)
	s.rpc.Register(ProgMount, VersMount, s.mountHandler)
	return s
}

// ListenAndServe serves UDP on addr until Close.
func (s *Server) ListenAndServe(addr string) error { return s.rpc.ListenAndServe(addr) }

// Addr returns the bound address.
func (s *Server) Addr() string {
	a := s.rpc.Addr()
	if a == nil {
		return ""
	}
	return a.String()
}

// Close stops the server.
func (s *Server) Close() error { return s.rpc.Close() }

func (s *Server) mountHandler(proc uint32, cred oncrpc.Cred, d *xdr.Decoder, e *xdr.Encoder) uint32 {
	switch proc {
	case MountProcNull:
		return oncrpc.AcceptSuccess
	case MountProcMnt, MountProcUmnt:
	default:
		return oncrpc.AcceptProcUnavail
	}
	path := d.String(MaxPath)
	switch {
	case d.Err() != nil:
		return oncrpc.AcceptGarbageArgs
	case proc == MountProcUmnt:
	case path != s.export:
		e.Uint32(ErrNoEnt)
	default:
		e.Uint32(OK)
		encodeFH(e, s.fs.Root())
	}
	return oncrpc.AcceptSuccess
}

// args holds one NFS call's arguments: each procedure decodes the ones
// it takes.
type args struct {
	fh, dir, toDir fsys.Handle
	name, toName   string
	path           string // SYMLINK's target
	off, count     uint32 // READDIR's cookie and byte budget are off and count
	data           []byte // a view of the datagram
	sa             sattr
}

// decodeArgs reads proc's whole argument list, leaving the check of
// d.Err() to its caller; it reports false for a procedure NFSv2 does not
// have.
func decodeArgs(proc uint32, d *xdr.Decoder) (a args, ok bool) {
	switch proc {
	case ProcNull:
	case ProcGetattr, ProcReadlink, ProcStatfs:
		a.fh = decodeFH(d)
	case ProcSetattr:
		a.fh, a.sa = decodeFH(d), decodeSattr(d)
	case ProcLookup, ProcRemove, ProcRmdir:
		a.dir, a.name = decodeFH(d), d.String(MaxName)
	case ProcCreate, ProcMkdir:
		a.dir, a.name, a.sa = decodeFH(d), d.String(MaxName), decodeSattr(d)
	case ProcSymlink:
		a.dir, a.name, a.path = decodeFH(d), d.String(MaxName), d.String(MaxPath)
		decodeSattr(d) // ignored
	case ProcRename:
		a.dir, a.name, a.toDir, a.toName = decodeFH(d), d.String(MaxName), decodeFH(d), d.String(MaxName)
	case ProcLink:
		a.fh, a.dir, a.name = decodeFH(d), decodeFH(d), d.String(MaxName)
	case ProcRead:
		a.fh, a.off, a.count = decodeFH(d), d.Uint32(), d.Uint32()
		d.Uint32() // totalcount (unused)
	case ProcWrite:
		a.fh = decodeFH(d)
		d.Uint32() // beginoffset (unused)
		a.off = d.Uint32()
		d.Uint32() // totalcount (unused)
		a.data = d.Opaque(MaxData + 16)
	case ProcReaddir:
		// The cookie is a 4-byte opaque: the big-endian index the
		// previous reply wrote.
		a.fh, a.off, a.count = decodeFH(d), d.Uint32(), d.Uint32()
	default:
		return a, false
	}
	return a, true
}

// reply encodes err's NFS status and reports whether it is OK, so the
// procedure's results follow.
func reply(e *xdr.Encoder, err error) bool {
	st := statusOf(err)
	e.Uint32(st)
	return st == OK
}

func (s *Server) nfsHandler(proc uint32, cred oncrpc.Cred, d *xdr.Decoder, e *xdr.Encoder) uint32 {
	a, ok := decodeArgs(proc, d)
	switch {
	case !ok:
		return oncrpc.AcceptProcUnavail
	case d.Err() != nil:
		return oncrpc.AcceptGarbageArgs
	}
	switch proc {
	case ProcGetattr:
		attr, err := s.fs.GetAttr(a.fh)
		if reply(e, err) {
			encodeFattr(e, a.fh, attr)
		}
	case ProcSetattr:
		attr, err := s.fs.SetAttr(a.fh, a.sa.apply())
		if reply(e, err) {
			encodeFattr(e, a.fh, attr)
		}
	case ProcLookup:
		h, attr, err := s.fs.Lookup(a.dir, a.name)
		if reply(e, err) {
			encodeFH(e, h)
			encodeFattr(e, h, attr)
		}
	case ProcReadlink:
		target, err := s.fs.ReadLink(a.fh)
		if reply(e, err) {
			e.String(target)
		}
	case ProcRead:
		data, err := s.fs.Read(a.fh, uint64(a.off), int(min(a.count, MaxData)))
		if err != nil {
			reply(e, err)
			break
		}
		attr, err := s.fs.GetAttr(a.fh)
		if reply(e, err) {
			encodeFattr(e, a.fh, attr)
			e.Opaque(data)
		}
	case ProcWrite:
		// Copied: a FileSys may keep what it is handed, and the data is
		// a view of the datagram, which the next call overwrites.
		if err := s.fs.Write(a.fh, uint64(a.off), append([]byte(nil), a.data...)); err != nil {
			reply(e, err)
			break
		}
		attr, err := s.fs.GetAttr(a.fh)
		if reply(e, err) {
			encodeFattr(e, a.fh, attr)
		}
	case ProcCreate, ProcMkdir:
		mk := s.fs.Create
		if proc == ProcMkdir {
			mk = s.fs.Mkdir
		}
		h, attr, err := mk(a.dir, a.name, a.sa.mode&07777)
		if reply(e, err) {
			encodeFH(e, h)
			encodeFattr(e, h, attr)
		}
	case ProcRemove:
		reply(e, s.fs.Remove(a.dir, a.name))
	case ProcRmdir:
		reply(e, s.fs.Rmdir(a.dir, a.name))
	case ProcRename:
		reply(e, s.fs.Rename(a.dir, a.name, a.toDir, a.toName))
	case ProcLink:
		reply(e, s.fs.Link(a.fh, a.dir, a.name))
	case ProcSymlink:
		_, err := s.fs.Symlink(a.dir, a.name, a.path)
		reply(e, err)
	case ProcReaddir:
		ents, err := s.fs.ReadDir(a.fh)
		if !reply(e, err) {
			break
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		budget := int(a.count)
		i := int(a.off)
		for ; i < len(ents); i++ {
			need := 4 + 4 + len(ents[i].Name) + 8 + CookieSize
			if budget < need+8 {
				break
			}
			budget -= need
			e.Bool(true) // value follows
			e.Uint32(uint32(ents[i].Handle))
			e.String(ents[i].Name)
			e.Uint32(uint32(i + 1)) // cookie
		}
		e.Bool(false)          // no more entries in this reply
		e.Bool(i >= len(ents)) // eof
	case ProcStatfs:
		st, err := s.fs.StatFS()
		if reply(e, err) {
			e.Uint32(MaxData)                                 // tsize
			e.Uint32(types.BlockSize)                         // bsize
			e.Uint32(uint32(st.TotalBytes / types.BlockSize)) // blocks
			e.Uint32(uint32(st.FreeBytes / types.BlockSize))  // bfree
			e.Uint32(uint32(st.FreeBytes / types.BlockSize))  // bavail
		}
	}
	return oncrpc.AcceptSuccess
}
