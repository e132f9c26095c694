// Package s4fs is the "S4 client" of OSDI '00 §4.1.2: a user-level
// translator that overlays an NFS-style file system onto the S4 drive's
// flat object namespace.
//
//   - Every file, directory, and symlink is one S4 object; the NFS file
//     handle is the ObjectID.
//   - Directory objects hold fixed-size records (name → ObjectID, type).
//     A create fills the lowest free slot or appends, a remove writes a
//     zero record over its slot, and a rename within a directory rewrites
//     its record in place: one small object write per namespace change,
//     like a conventional file system touching one directory block.
//   - The Unix attribute set (type, mode, uid, gid, nlink) lives in the
//     object's opaque attribute space; size and mtime come from the
//     drive's own metadata.
//   - To honor NFSv2's synchronous semantics, every mutating operation
//     ends with an S4 Sync RPC (§4.1.2); SyncEachOp can relax that for
//     experiments.
//   - The translator aggressively caches directory contents (the paper's
//     "attribute and directory caches") so repeated lookups cost no disk
//     I/O.
//
// AtTime returns a read-only view of the entire tree as it existed at a
// past instant — the foundation for the paper's "time-enhanced" ls and
// cp recovery tools (§3.6).
package s4fs

import (
	"encoding/binary"
	"sync"

	"s4/internal/core"
	"s4/internal/fsys"
	"s4/internal/types"
)

// Directory record layout (128 bytes).
const (
	recSize      = 128
	maxNameLen   = 117
	recsPerBlock = types.BlockSize / recSize // records per drive block
)

type dirRec struct {
	name string
	obj  types.ObjectID
	typ  fsys.FileType
	slot int // record index within the directory object (cache only)
}

func encodeRec(r dirRec) []byte {
	buf := make([]byte, recSize)
	buf[0] = byte(len(r.name))
	copy(buf[1:1+maxNameLen], r.name)
	buf[118] = byte(r.typ)
	binary.LittleEndian.PutUint64(buf[119:], uint64(r.obj))
	return buf
}

func decodeRec(buf []byte) (dirRec, bool) {
	n := int(buf[0])
	if n == 0 || n > maxNameLen {
		return dirRec{}, false
	}
	return dirRec{
		name: string(buf[1 : 1+n]),
		typ:  fsys.FileType(buf[118]),
		obj:  types.ObjectID(binary.LittleEndian.Uint64(buf[119:])),
	}, true
}

// ParseDirData decodes a directory object's raw contents (as read via
// the S4 protocol, possibly with a time parameter) into entries. It is
// what lets recovery tools implement the paper's "time-enhanced ls"
// (§3.6) over the wire without mounting the file system.
func ParseDirData(data []byte) []fsys.DirEntry {
	var out []fsys.DirEntry
	for p := 0; p+recSize <= len(data); p += recSize {
		if r, ok := decodeRec(data[p : p+recSize]); ok {
			out = append(out, fsys.DirEntry{Name: r.name, Handle: fsys.Handle(r.obj), Type: r.typ})
		}
	}
	return out
}

// Unix attribute blob stored in the object's opaque attribute space.
const attrBlobLen = 17

func encodeAttrBlob(typ fsys.FileType, mode, uid, gid, nlink uint32) []byte {
	b := make([]byte, attrBlobLen)
	b[0] = byte(typ)
	binary.LittleEndian.PutUint32(b[1:], mode)
	binary.LittleEndian.PutUint32(b[5:], uid)
	binary.LittleEndian.PutUint32(b[9:], gid)
	binary.LittleEndian.PutUint32(b[13:], nlink)
	return b
}

func decodeAttrBlob(b []byte) (typ fsys.FileType, mode, uid, gid, nlink uint32, ok bool) {
	if len(b) < attrBlobLen {
		return 0, 0, 0, 0, 0, false
	}
	return fsys.FileType(b[0]),
		binary.LittleEndian.Uint32(b[1:]),
		binary.LittleEndian.Uint32(b[5:]),
		binary.LittleEndian.Uint32(b[9:]),
		binary.LittleEndian.Uint32(b[13:]),
		true
}

// Options configures the translator.
type Options struct {
	// Cred is the credential attached to every drive request.
	Cred types.Cred
	// Partition is the named object anchoring the root directory.
	Partition string
	// SyncEachOp issues an S4 Sync after every mutating operation
	// (NFSv2 semantics, the default configuration in the paper).
	SyncEachOp bool
}

// FS is an S4-backed file system. It implements fsys.FileSys.
type FS struct {
	be   Backend
	drv  *core.Drive // non-nil only for local (Fig. 1b) deployments
	opts Options
	root types.ObjectID
	at   types.Timestamp // TimeNowest for the live view

	mu   sync.Mutex                   // guards dirs and every dirState in it
	dirs map[types.ObjectID]*dirState // directory cache (live view only)
}

var _ fsys.FileSys = (*FS)(nil)

// Mkfs initializes a fresh file system on an in-process drive (the
// Fig. 1b deployment): it creates the root directory object and binds
// it to the partition name.
func Mkfs(drv *core.Drive, opts Options) (*FS, error) {
	fs, err := MkfsBackend(&LocalBackend{Drv: drv, Cred: opts.Cred}, opts)
	if err != nil {
		return nil, err
	}
	fs.drv = drv
	return fs, nil
}

// MkfsBackend initializes a fresh file system over any Backend — an
// authenticated *s4rpc.Client session gives the Fig. 1a deployment
// (translator on the client host, drive network-attached).
func MkfsBackend(be Backend, opts Options) (*FS, error) {
	if opts.Partition == "" {
		opts.Partition = "root"
	}
	fs := &FS{be: be, opts: opts, at: types.TimeNowest, dirs: make(map[types.ObjectID]*dirState)}
	rootID, err := be.Create(fs.defaultACL(), encodeAttrBlob(fsys.TypeDir, 0755, uint32(opts.Cred.User), 0, 2))
	if err != nil {
		return nil, err
	}
	if err := be.PCreate(opts.Partition, rootID); err != nil {
		return nil, err
	}
	fs.root = rootID
	return fs, fs.maybeSync()
}

// Mount attaches to an existing file system on an in-process drive.
func Mount(drv *core.Drive, opts Options) (*FS, error) {
	fs, err := MountBackend(&LocalBackend{Drv: drv, Cred: opts.Cred}, opts)
	if err != nil {
		return nil, err
	}
	fs.drv = drv
	return fs, nil
}

// MountBackend attaches to an existing file system over any Backend.
func MountBackend(be Backend, opts Options) (*FS, error) {
	if opts.Partition == "" {
		opts.Partition = "root"
	}
	rootID, err := be.PMount(opts.Partition, types.TimeNowest)
	if err != nil {
		return nil, err
	}
	return &FS{
		be: be, opts: opts, root: rootID, at: types.TimeNowest,
		dirs: make(map[types.ObjectID]*dirState),
	}, nil
}

func (fs *FS) defaultACL() []types.ACLEntry {
	return []types.ACLEntry{
		{User: fs.opts.Cred.User, Perm: types.PermAll},
		{User: types.AdminUser, Perm: types.PermAll},
	}
}

// AtTime returns a read-only view of the file system as of ts. Mutating
// operations on the view fail; reads resolve every object at ts, so the
// whole tree — names, attributes, data — is the historical one.
func (fs *FS) AtTime(ts types.Timestamp) *FS {
	return &FS{be: fs.be, drv: fs.drv, opts: fs.opts, root: fs.root, at: ts}
}

// WithCred returns a view of the same tree operating under a different
// credential — how the administrator's recovery tools (§3.6) open a
// user's file system with history-recovery rights.
// WithCred requires a local (in-process) drive; network sessions are
// bound to their credential at Dial time.
func (fs *FS) WithCred(cred types.Cred) *FS {
	if fs.drv == nil {
		panic("s4fs: WithCred requires a local drive backend")
	}
	opts := fs.opts
	opts.Cred = cred
	return &FS{
		be: &LocalBackend{Drv: fs.drv, Cred: cred}, drv: fs.drv,
		opts: opts, root: fs.root, at: fs.at,
		dirs: make(map[types.ObjectID]*dirState),
	}
}

// Drive exposes the underlying in-process drive (recovery tooling needs
// it); nil when the backend is a network session.
func (fs *FS) Drive() *core.Drive { return fs.drv }

func (fs *FS) readOnly() bool { return fs.at != types.TimeNowest }

func (fs *FS) maybeSync() error {
	if fs.opts.SyncEachOp {
		return fs.be.Sync()
	}
	return nil
}

// ---- directory cache ----

// dirState is the live-view cache of one directory object, whose zero
// records are free slots and whose last block holds a record. A change
// holds FS.mu across its one drive call, so it owns the slot it picks
// until it lands and a truncate cuts no record being written.
type dirState struct {
	ents map[string]dirRec
	used []bool // whether each slot holds a record
}

// loadDir returns the live-view cache of dir, loading it from the
// drive on first touch.
func (fs *FS) loadDir(dir types.ObjectID) (*dirState, error) {
	fs.mu.Lock()
	d, ok := fs.dirs[dir]
	fs.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := fs.readDir(dir)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if cur, ok := fs.dirs[dir]; ok {
		return cur, nil // a racing load won, and may have taken changes since
	}
	fs.dirs[dir] = d
	return d, nil
}

// readDir reads a directory object's records as of the view's time.
func (fs *FS) readDir(dir types.ObjectID) (*dirState, error) {
	a, err := fs.attrOf(dir)
	if err != nil {
		return nil, err
	}
	if a.Type != fsys.TypeDir {
		return nil, fsys.ErrNotDir
	}
	data, err := fs.Read(fsys.Handle(dir), 0, int(a.Size))
	if err != nil {
		return nil, err
	}
	d := &dirState{ents: make(map[string]dirRec, len(data)/recSize)}
	for p := 0; p+recSize <= len(data); p += recSize {
		r, ok := decodeRec(data[p : p+recSize])
		if ok {
			r.slot = len(d.used)
			d.ents[r.name] = r
		}
		d.used = append(d.used, ok)
	}
	return d, nil
}

// entry returns name's record in dir, honoring the view's time.
func (fs *FS) entry(dir types.ObjectID, name string) (dirRec, error) {
	d, err := fs.dirView(dir)
	if err != nil {
		return dirRec{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if r, ok := d.ents[name]; ok {
		return r, nil
	}
	return dirRec{}, fsys.ErrNotFound
}

// putEntry writes r into dir as one record write. With from set, r
// takes the slot of from, which must still name r.obj, renaming it in
// place; otherwise it takes the lowest free slot, or appends. A failed
// write changes no cache.
func (fs *FS) putEntry(dir types.ObjectID, r dirRec, from string) error {
	if len(r.name) == 0 || len(r.name) > maxNameLen {
		return types.ErrNameTooLong
	}
	d, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	old, ok := d.ents[from]
	switch _, exists := d.ents[r.name]; {
	case exists:
		return fsys.ErrExist
	case from != "" && (!ok || old.obj != r.obj):
		return fsys.ErrNotFound
	case from != "":
		r.slot = old.slot
	default:
		for r.slot < len(d.used) && d.used[r.slot] {
			r.slot++
		}
	}
	if err := fs.be.Write(dir, uint64(r.slot)*recSize, encodeRec(r)); err != nil {
		return err
	}
	if r.slot == len(d.used) {
		d.used = append(d.used, false)
	}
	d.used[r.slot] = true
	delete(d.ents, from)
	d.ents[r.name] = r
	return nil
}

// dropEntry removes name from dir by writing a zero record over its
// slot: one record write. When that would leave the directory's last
// block with no record, it truncates the object at a block boundary
// instead, dropping the record with its block and rewriting none. It
// fails with ErrNotFound unless name still names obj, the object the
// caller checked.
func (fs *FS) dropEntry(dir types.ObjectID, name string, obj types.ObjectID) error {
	d, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r, ok := d.ents[name]
	if !ok || r.obj != obj {
		return fsys.ErrNotFound
	}
	top := len(d.used)
	for top > 0 && (top-1 == r.slot || !d.used[top-1]) {
		top--
	}
	cut := (top + recsPerBlock - 1) / recsPerBlock * recsPerBlock
	if cut <= r.slot {
		err = fs.be.Truncate(dir, uint64(cut)*recSize)
	} else {
		err = fs.be.Write(dir, uint64(r.slot)*recSize, make([]byte, recSize))
	}
	if err != nil {
		return err
	}
	d.used[r.slot] = false
	if cut <= r.slot {
		d.used = d.used[:cut]
	}
	delete(d.ents, name)
	return nil
}

// ---- attribute helpers ----

func (fs *FS) attrOf(id types.ObjectID) (fsys.Attr, error) {
	ai, err := fs.be.GetAttr(id, fs.at)
	if err != nil {
		return fsys.Attr{}, err
	}
	typ, mode, uid, gid, nlink, ok := decodeAttrBlob(ai.Attr)
	if !ok {
		return fsys.Attr{}, fsys.ErrStale
	}
	return fsys.Attr{
		Type: typ, Mode: mode, UID: uid, GID: gid, Nlink: nlink,
		Size: ai.Size, Mtime: ai.ModTime, Ctime: ai.CreateTime,
	}, nil
}

func (fs *FS) setAttrBlob(id types.ObjectID, typ fsys.FileType, mode, uid, gid, nlink uint32) error {
	return fs.be.SetAttr(id, encodeAttrBlob(typ, mode, uid, gid, nlink))
}

// ---- fsys.FileSys implementation ----

// Root returns the root directory handle.
func (fs *FS) Root() fsys.Handle { return fsys.Handle(fs.root) }

// Lookup resolves name in dir.
func (fs *FS) Lookup(dir fsys.Handle, name string) (fsys.Handle, fsys.Attr, error) {
	r, err := fs.entry(types.ObjectID(dir), name)
	if err != nil {
		return 0, fsys.Attr{}, err
	}
	a, err := fs.attrOf(r.obj)
	if err != nil {
		return 0, fsys.Attr{}, err
	}
	return fsys.Handle(r.obj), a, nil
}

// dirView returns directory entries honoring the view's time.
func (fs *FS) dirView(dir types.ObjectID) (*dirState, error) {
	if fs.readOnly() {
		return fs.readDir(dir)
	}
	return fs.loadDir(dir)
}

// GetAttr returns h's attributes.
func (fs *FS) GetAttr(h fsys.Handle) (fsys.Attr, error) {
	return fs.attrOf(types.ObjectID(h))
}

// SetAttr applies a partial update; Size triggers truncate.
func (fs *FS) SetAttr(h fsys.Handle, sa fsys.SetAttr) (fsys.Attr, error) {
	if fs.readOnly() {
		return fsys.Attr{}, fsys.ErrPerm
	}
	id := types.ObjectID(h)
	a, err := fs.attrOf(id)
	if err != nil {
		return fsys.Attr{}, err
	}
	if sa.Mode != nil || sa.UID != nil || sa.GID != nil {
		mode, uid, gid := a.Mode, a.UID, a.GID
		if sa.Mode != nil {
			mode = *sa.Mode
		}
		if sa.UID != nil {
			uid = *sa.UID
		}
		if sa.GID != nil {
			gid = *sa.GID
		}
		if err := fs.setAttrBlob(id, a.Type, mode, uid, gid, a.Nlink); err != nil {
			return fsys.Attr{}, err
		}
	}
	if sa.Size != nil && *sa.Size != a.Size {
		if a.Type == fsys.TypeDir {
			return fsys.Attr{}, fsys.ErrIsDir
		}
		if err := fs.be.Truncate(id, *sa.Size); err != nil {
			return fsys.Attr{}, err
		}
	}
	if err := fs.maybeSync(); err != nil {
		return fsys.Attr{}, err
	}
	return fs.attrOf(id)
}

func (fs *FS) makeNode(dir fsys.Handle, name string, typ fsys.FileType, mode uint32, data []byte) (fsys.Handle, fsys.Attr, error) {
	if fs.readOnly() {
		return 0, fsys.Attr{}, fsys.ErrPerm
	}
	if len(name) == 0 || len(name) > maxNameLen {
		return 0, fsys.Attr{}, types.ErrNameTooLong
	}
	if _, err := fs.loadDir(types.ObjectID(dir)); err != nil {
		return 0, fsys.Attr{}, err
	}
	nlink := uint32(1)
	if typ == fsys.TypeDir {
		nlink = 2
	}
	id, err := fs.be.Create(fs.defaultACL(), encodeAttrBlob(typ, mode, uint32(fs.opts.Cred.User), 0, nlink))
	if err != nil {
		return 0, fsys.Attr{}, err
	}
	if len(data) > 0 {
		if err := fs.be.Write(id, 0, data); err != nil {
			return 0, fsys.Attr{}, err
		}
	}
	if err := fs.putEntry(types.ObjectID(dir), dirRec{name: name, obj: id, typ: typ}, ""); err != nil {
		// Roll the orphan object back into the history pool.
		_ = fs.be.Delete(id)
		return 0, fsys.Attr{}, err
	}
	if err := fs.maybeSync(); err != nil {
		return 0, fsys.Attr{}, err
	}
	a, err := fs.attrOf(id)
	return fsys.Handle(id), a, err
}

// Create makes a regular file.
func (fs *FS) Create(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	return fs.makeNode(dir, name, fsys.TypeReg, mode, nil)
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	return fs.makeNode(dir, name, fsys.TypeDir, mode, nil)
}

// Symlink makes a symbolic link.
func (fs *FS) Symlink(dir fsys.Handle, name, target string) (fsys.Handle, error) {
	h, _, err := fs.makeNode(dir, name, fsys.TypeSymlink, 0777, []byte(target))
	return h, err
}

// ReadLink returns a symlink's target.
func (fs *FS) ReadLink(h fsys.Handle) (string, error) {
	a, err := fs.attrOf(types.ObjectID(h))
	if err != nil {
		return "", err
	}
	if a.Type != fsys.TypeSymlink {
		return "", fsys.ErrInval
	}
	data, err := fs.be.Read(types.ObjectID(h), 0, a.Size, fs.at)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Remove unlinks a non-directory; the object is deleted when its last
// link goes (its versions stay in the drive's history pool).
func (fs *FS) Remove(dir fsys.Handle, name string) error {
	if fs.readOnly() {
		return fsys.ErrPerm
	}
	r, err := fs.entry(types.ObjectID(dir), name)
	if err != nil {
		return err
	}
	if r.typ == fsys.TypeDir {
		return fsys.ErrIsDir
	}
	if err := fs.dropEntry(types.ObjectID(dir), name, r.obj); err != nil {
		return err
	}
	a, err := fs.attrOf(r.obj)
	if err == nil && a.Nlink > 1 {
		err = fs.setAttrBlob(r.obj, a.Type, a.Mode, a.UID, a.GID, a.Nlink-1)
	} else {
		err = fs.be.Delete(r.obj)
	}
	if err != nil {
		return err
	}
	return fs.maybeSync()
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(dir fsys.Handle, name string) error {
	if fs.readOnly() {
		return fsys.ErrPerm
	}
	r, err := fs.entry(types.ObjectID(dir), name)
	if err != nil {
		return err
	}
	if r.typ != fsys.TypeDir {
		return fsys.ErrNotDir
	}
	if ents, err := fs.ReadDir(fsys.Handle(r.obj)); err != nil {
		return err
	} else if len(ents) > 0 {
		return fsys.ErrNotEmpty
	}
	if err := fs.dropEntry(types.ObjectID(dir), name, r.obj); err != nil {
		return err
	}
	if err := fs.be.Delete(r.obj); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.dirs, r.obj)
	fs.mu.Unlock()
	return fs.maybeSync()
}

// Rename moves an entry, replacing any existing non-directory target
// (or an empty directory when the source is a directory).
func (fs *FS) Rename(fromDir fsys.Handle, fromName string, toDir fsys.Handle, toName string) error {
	if fs.readOnly() {
		return fsys.ErrPerm
	}
	srcDir := types.ObjectID(fromDir)
	dstDir := types.ObjectID(toDir)
	src, err := fs.entry(srcDir, fromName)
	if err != nil {
		return err
	}
	if srcDir == dstDir && fromName == toName {
		return nil
	}
	if dst, err := fs.entry(dstDir, toName); err == nil {
		switch {
		case dst.typ == fsys.TypeDir && src.typ != fsys.TypeDir:
			return fsys.ErrIsDir
		case dst.typ == fsys.TypeDir:
			if err := fs.Rmdir(toDir, toName); err != nil {
				return err
			}
		default:
			if err := fs.Remove(toDir, toName); err != nil {
				return err
			}
		}
	}
	// The new name lands before the old one goes: one record write
	// within a directory, so the file never lacks a name.
	if srcDir == dstDir {
		err = fs.putEntry(dstDir, dirRec{name: toName, obj: src.obj, typ: src.typ}, fromName)
	} else if err = fs.putEntry(dstDir, dirRec{name: toName, obj: src.obj, typ: src.typ}, ""); err == nil {
		err = fs.dropEntry(srcDir, fromName, src.obj)
	}
	if err != nil {
		return err
	}
	return fs.maybeSync()
}

// Link makes a hard link to a regular file.
func (fs *FS) Link(h fsys.Handle, dir fsys.Handle, name string) error {
	if fs.readOnly() {
		return fsys.ErrPerm
	}
	id := types.ObjectID(h)
	a, err := fs.attrOf(id)
	if err != nil {
		return err
	}
	if a.Type == fsys.TypeDir {
		return fsys.ErrIsDir
	}
	if err := fs.putEntry(types.ObjectID(dir), dirRec{name: name, obj: id, typ: a.Type}, ""); err != nil {
		return err
	}
	if err := fs.setAttrBlob(id, a.Type, a.Mode, a.UID, a.GID, a.Nlink+1); err != nil {
		return err
	}
	return fs.maybeSync()
}

// Read returns up to n bytes at off, honoring the view's time.
func (fs *FS) Read(h fsys.Handle, off uint64, n int) ([]byte, error) {
	var out []byte
	for n > 0 {
		chunk := n
		if chunk > types.MaxIO {
			chunk = types.MaxIO
		}
		data, err := fs.be.Read(types.ObjectID(h), off, uint64(chunk), fs.at)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		if len(data) < chunk {
			break
		}
		off += uint64(len(data))
		n -= len(data)
	}
	return out, nil
}

// Write stores data at off.
func (fs *FS) Write(h fsys.Handle, off uint64, data []byte) error {
	if fs.readOnly() {
		return fsys.ErrPerm
	}
	for len(data) > 0 {
		chunk := len(data)
		if chunk > types.MaxIO {
			chunk = types.MaxIO
		}
		if err := fs.be.Write(types.ObjectID(h), off, data[:chunk]); err != nil {
			return err
		}
		off += uint64(chunk)
		data = data[chunk:]
	}
	return fs.maybeSync()
}

// ReadDir lists dir.
func (fs *FS) ReadDir(dir fsys.Handle) ([]fsys.DirEntry, error) {
	d, err := fs.dirView(types.ObjectID(dir))
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]fsys.DirEntry, 0, len(d.ents))
	for _, r := range d.ents {
		out = append(out, fsys.DirEntry{Name: r.name, Handle: fsys.Handle(r.obj), Type: r.typ})
	}
	return out, nil
}

// StatFS reports drive capacity.
func (fs *FS) StatFS() (fsys.Stat, error) {
	st, err := fs.be.Status()
	if err != nil {
		return fsys.Stat{}, err
	}
	blockBytes := uint64(types.BlockSize)
	return fsys.Stat{
		TotalBytes: uint64(st.TotalSegments) * 63 * blockBytes,
		FreeBytes:  uint64(st.FreeSegments) * 63 * blockBytes,
	}, nil
}

// Sync forces everything durable.
func (fs *FS) Sync() error { return fs.be.Sync() }
