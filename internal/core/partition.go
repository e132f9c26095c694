package core

import (
	"encoding/binary"
	"sort"

	"s4/internal/codec"
	"s4/internal/types"
)

// Named objects ("partitions", §4.1): the drive associates ASCII names
// with ObjectIDs so client file systems have persistent mount points.
// The table is itself stored in a reserved S4 object and modified only
// through the PCreate/PDelete RPCs, so it is versioned like everything
// else — PList and PMount accept the time parameter.

// PartEntry is one name → object association.
type PartEntry struct {
	Name string
	Obj  types.ObjectID
}

// maxTableEntries bounds the entries of a partition or policy table.
const maxTableEntries = 1 << 20

func encodePartTable(entries []PartEntry) []byte {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	buf := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.AppendUvarint(buf, uint64(e.Obj))
	}
	return buf
}

// decodePartTable reads a table whose entries take at least two bytes
// each: a name length and an object ID.
func decodePartTable(data []byte) ([]PartEntry, error) {
	r := codec.NewReader("core: partition table", data)
	out := make([]PartEntry, r.Count(r.Uvarint(), 2, maxTableEntries))
	for i := range out {
		out[i].Name = string(r.Bytes(r.Count(r.Uvarint(), 1, types.MaxNameLen)))
		out[i].Obj = types.ObjectID(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// readPartTableLocked loads the table as of time at.
func (d *Drive) readPartTableLocked(at types.Timestamp) ([]PartEntry, error) {
	o, ok := d.objects[types.PartitionTable]
	if !ok {
		return nil, types.ErrCorrupt
	}
	in, _, err := d.inodeAtLocked(o, at)
	if err != nil {
		return nil, err
	}
	if in.Size == 0 {
		return nil, nil
	}
	data, err := d.readExtent(in, 0, in.Size)
	if err != nil {
		return nil, err
	}
	return decodePartTable(data)
}

// writePartTableLocked persists the table as the partition object's new
// version, using admin credentials internally (clients reach this only
// through PCreate/PDelete, which carry their own authorization).
func (d *Drive) writePartTableLocked(cred types.Cred, entries []PartEntry) error {
	o, err := d.getObject(types.PartitionTable)
	if err != nil {
		return err
	}
	return d.replaceObjectLocked(cred, o, encodePartTable(entries))
}

// replaceObjectLocked makes data the whole of o's next version: it
// truncates o first if data is shorter, then writes data over it.
func (d *Drive) replaceObjectLocked(cred types.Cred, o *object, data []byte) error {
	if uint64(len(data)) < o.ino.Size {
		if err := d.truncateBlocksLocked(cred, o, uint64(len(data))); err != nil {
			return err
		}
	}
	return d.writeBlocksLocked(cred, o, 0, data)
}

// PCreate associates name with an existing object (Table 1).
func (d *Drive) PCreate(cred types.Cred, name string, id types.ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.pcreateLocked(cred, name, id)
	d.auditOp(cred, types.OpPCreate, id, 0, 0, name, err)
	return err
}

func (d *Drive) pcreateLocked(cred types.Cred, name string, id types.ObjectID) error {
	if d.closed {
		return types.ErrDriveStopped
	}
	if len(name) == 0 {
		return types.ErrInval
	}
	if len(name) > types.MaxNameLen {
		return types.ErrNameTooLong
	}
	// The named object must exist and be writable by the caller;
	// naming an object grants nothing, but creating a mount point for
	// someone else's object is not allowed.
	o, err := d.getObject(id)
	if err != nil {
		return err
	}
	if err := d.checkPerm(cred, o.ino, types.PermWrite); err != nil {
		return err
	}
	entries, err := d.readPartTableLocked(types.TimeNowest)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == name {
			return types.ErrExist
		}
	}
	entries = append(entries, PartEntry{Name: name, Obj: id})
	return d.writePartTableLocked(cred, entries)
}

// PDelete removes a name → object association (Table 1). The object
// itself is untouched.
func (d *Drive) PDelete(cred types.Cred, name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.pdeleteLocked(cred, name)
	d.auditOp(cred, types.OpPDelete, 0, 0, 0, name, err)
	return err
}

func (d *Drive) pdeleteLocked(cred types.Cred, name string) error {
	if d.closed {
		return types.ErrDriveStopped
	}
	entries, err := d.readPartTableLocked(types.TimeNowest)
	if err != nil {
		return err
	}
	idx := -1
	for i, e := range entries {
		if e.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return types.ErrNoObject
	}
	// Deleting the name requires write access to the named object (or
	// admin).
	if !cred.Admin {
		o, err := d.getObject(entries[idx].Obj)
		if err == nil {
			if err := d.checkPerm(cred, o.ino, types.PermWrite); err != nil {
				return err
			}
		}
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	return d.writePartTableLocked(cred, entries)
}

// PList lists the partitions as of time at (Table 1; time-based).
func (d *Drive) PList(cred types.Cred, at types.Timestamp) ([]PartEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := d.plistLocked(cred, at)
	d.auditOp(cred, types.OpPList, 0, 0, 0, "", err)
	return entries, err
}

func (d *Drive) plistLocked(cred types.Cred, at types.Timestamp) ([]PartEntry, error) {
	if d.closed {
		return nil, types.ErrDriveStopped
	}
	if at != types.TimeNowest && !cred.Admin {
		// Historical views of the mount table are recovery data.
		o, ok := d.objects[types.PartitionTable]
		if !ok {
			return nil, types.ErrCorrupt
		}
		if err := d.loadInode(o); err != nil {
			return nil, err
		}
		if !o.ino.PermFor(cred.User).Has(types.PermRecover) {
			return nil, types.ErrPerm
		}
	}
	return d.readPartTableLocked(at)
}

// PMount resolves a name to its ObjectID as of time at (Table 1).
func (d *Drive) PMount(cred types.Cred, name string, at types.Timestamp) (types.ObjectID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, err := d.pmountLocked(cred, name, at)
	d.auditOp(cred, types.OpPMount, id, 0, 0, name, err)
	return id, err
}

func (d *Drive) pmountLocked(cred types.Cred, name string, at types.Timestamp) (types.ObjectID, error) {
	entries, err := d.plistLocked(cred, at)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Obj, nil
		}
	}
	return 0, types.ErrNoObject
}
