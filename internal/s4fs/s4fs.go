// Package s4fs is the "S4 client" of OSDI '00 §4.1.2: a user-level
// translator that overlays an NFS-style file system onto the S4 drive's
// flat object namespace.
//
//   - Every file, directory, and symlink is one S4 object; the NFS file
//     handle is the ObjectID.
//   - Directory objects hold fixed-size records (name → ObjectID, type);
//     creates append a record, removes swap the last record into the
//     hole — one or two small object writes per namespace operation,
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
	"fmt"
	"sync"

	"s4/internal/core"
	"s4/internal/fsys"
	"s4/internal/types"
)

// Directory record layout (128 bytes).
const (
	recSize    = 128
	maxNameLen = 117
)

type dirRec struct {
	name string
	obj  types.ObjectID
	typ  fsys.FileType
	slot uint64 // record index within the directory object (cache only)
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

	mu   sync.Mutex
	dirs map[types.ObjectID]map[string]dirRec // directory cache (live view only)
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
	fs := &FS{be: be, opts: opts, at: types.TimeNowest, dirs: make(map[types.ObjectID]map[string]dirRec)}
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
		dirs: make(map[types.ObjectID]map[string]dirRec),
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
		dirs: make(map[types.ObjectID]map[string]dirRec),
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

// loadDir returns the live-view cached entries of dir, loading from the
// drive on first touch.
func (fs *FS) loadDir(dir types.ObjectID) (map[string]dirRec, error) {
	fs.mu.Lock()
	if m, ok := fs.dirs[dir]; ok {
		fs.mu.Unlock()
		return m, nil
	}
	fs.mu.Unlock()
	m, err := fs.readDirRecords(dir, fs.at)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.dirs[dir] = m
	fs.mu.Unlock()
	return m, nil
}

// readDirRecords reads a directory object's records at time ts.
func (fs *FS) readDirRecords(dir types.ObjectID, ts types.Timestamp) (map[string]dirRec, error) {
	ai, err := fs.be.GetAttr(dir, ts)
	if err != nil {
		return nil, err
	}
	typ, _, _, _, _, ok := decodeAttrBlob(ai.Attr)
	if !ok || typ != fsys.TypeDir {
		return nil, fsys.ErrNotDir
	}
	m := make(map[string]dirRec, ai.Size/recSize)
	for off := uint64(0); off < ai.Size; off += types.MaxIO {
		n := uint64(types.MaxIO)
		if off+n > ai.Size {
			n = ai.Size - off
		}
		data, err := fs.be.Read(dir, off, n, ts)
		if err != nil {
			return nil, err
		}
		for p := 0; p+recSize <= len(data); p += recSize {
			if r, ok := decodeRec(data[p : p+recSize]); ok {
				r.slot = (off + uint64(p)) / recSize
				m[r.name] = r
			}
		}
	}
	return m, nil
}

// addEntry appends one record to the directory object and cache. Slots
// stay dense (removal swaps the last record into the hole), so the next
// free slot is simply the entry count.
func (fs *FS) addEntry(dir types.ObjectID, r dirRec) error {
	m, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	if _, exists := m[r.name]; exists {
		fs.mu.Unlock()
		return fsys.ErrExist
	}
	r.slot = uint64(len(m))
	fs.mu.Unlock()
	if err := fs.be.Write(dir, r.slot*recSize, encodeRec(r)); err != nil {
		return err
	}
	fs.mu.Lock()
	m[r.name] = r
	fs.mu.Unlock()
	return nil
}

// dropEntry removes name from the directory by swapping the last record
// into its slot and truncating — one read, at most one write, and one
// truncate, like a conventional file system touching one directory
// block.
func (fs *FS) dropEntry(dir types.ObjectID, name string) (dirRec, error) {
	m, err := fs.loadDir(dir)
	if err != nil {
		return dirRec{}, err
	}
	fs.mu.Lock()
	victim, ok := m[name]
	slots := uint64(len(m))
	fs.mu.Unlock()
	if !ok {
		return dirRec{}, fsys.ErrNotFound
	}
	if victim.slot != slots-1 {
		data, err := fs.be.Read(dir, (slots-1)*recSize, recSize, types.TimeNowest)
		if err != nil {
			return dirRec{}, err
		}
		lastRec, ok := decodeRec(data)
		if !ok {
			return dirRec{}, fmt.Errorf("s4fs: undecodable tail record in %v: %w", dir, types.ErrCorrupt)
		}
		if err := fs.be.Write(dir, victim.slot*recSize, encodeRec(lastRec)); err != nil {
			return dirRec{}, err
		}
		fs.mu.Lock()
		lastRec.slot = victim.slot
		m[lastRec.name] = lastRec
		fs.mu.Unlock()
	}
	if err := fs.be.Truncate(dir, (slots-1)*recSize); err != nil {
		return dirRec{}, err
	}
	fs.mu.Lock()
	delete(m, name)
	fs.mu.Unlock()
	return victim, nil
}

// ---- attribute helpers ----

func (fs *FS) attrOf(id types.ObjectID) (fsys.Attr, error) {
	ai, err := fs.be.GetAttr(id, fs.at)
	if err != nil {
		return fsys.Attr{}, mapErr(err)
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

func mapErr(err error) error { return err }

// ---- fsys.FileSys implementation ----

// Root returns the root directory handle.
func (fs *FS) Root() fsys.Handle { return fsys.Handle(fs.root) }

// Lookup resolves name in dir.
func (fs *FS) Lookup(dir fsys.Handle, name string) (fsys.Handle, fsys.Attr, error) {
	m, err := fs.dirView(types.ObjectID(dir))
	if err != nil {
		return 0, fsys.Attr{}, err
	}
	r, ok := m[name]
	if !ok {
		return 0, fsys.Attr{}, fsys.ErrNotFound
	}
	a, err := fs.attrOf(r.obj)
	if err != nil {
		return 0, fsys.Attr{}, err
	}
	return fsys.Handle(r.obj), a, nil
}

// dirView returns directory entries honoring the view's time.
func (fs *FS) dirView(dir types.ObjectID) (map[string]dirRec, error) {
	if fs.readOnly() {
		return fs.readDirRecords(dir, fs.at)
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
	if err := fs.addEntry(types.ObjectID(dir), dirRec{name: name, obj: id, typ: typ}); err != nil {
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
	m, err := fs.loadDir(types.ObjectID(dir))
	if err != nil {
		return err
	}
	r, ok := m[name]
	if !ok {
		return fsys.ErrNotFound
	}
	if r.typ == fsys.TypeDir {
		return fsys.ErrIsDir
	}
	if _, err := fs.dropEntry(types.ObjectID(dir), name); err != nil {
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
	m, err := fs.loadDir(types.ObjectID(dir))
	if err != nil {
		return err
	}
	r, ok := m[name]
	if !ok {
		return fsys.ErrNotFound
	}
	if r.typ != fsys.TypeDir {
		return fsys.ErrNotDir
	}
	sub, err := fs.loadDir(r.obj)
	if err != nil {
		return err
	}
	if len(sub) > 0 {
		return fsys.ErrNotEmpty
	}
	if _, err := fs.dropEntry(types.ObjectID(dir), name); err != nil {
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
	sm, err := fs.loadDir(srcDir)
	if err != nil {
		return err
	}
	src, ok := sm[fromName]
	if !ok {
		return fsys.ErrNotFound
	}
	dm, err := fs.loadDir(dstDir)
	if err != nil {
		return err
	}
	if dst, exists := dm[toName]; exists {
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
	if _, err := fs.dropEntry(srcDir, fromName); err != nil {
		return err
	}
	if err := fs.addEntry(dstDir, dirRec{name: toName, obj: src.obj, typ: src.typ}); err != nil {
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
	if err := fs.addEntry(types.ObjectID(dir), dirRec{name: name, obj: id, typ: a.Type}); err != nil {
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
	m, err := fs.dirView(types.ObjectID(dir))
	if err != nil {
		return nil, err
	}
	out := make([]fsys.DirEntry, 0, len(m))
	for _, r := range m {
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
