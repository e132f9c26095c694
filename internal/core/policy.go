package core

import (
	"encoding/binary"
	"slices"
	"time"

	"s4/internal/codec"
	"s4/internal/types"
)

// Per-object retention policies (DESIGN.md §16). The table lives in a
// reserved S4 object (types.PolicyTable) and is written through the
// ordinary journaled write path, so it is versioned, checkpointed, and
// rebuilt by both recovery paths like any other object; Open decodes
// the current version into Drive.policies. Key 0 holds the drive-wide
// default; reserved objects below FirstUserObject always retain every
// version (see effectivePolicy in delta.go).

func encodePolicyTable(pols map[types.ObjectID]types.Policy) []byte {
	ids := make([]types.ObjectID, 0, len(pols))
	for id := range pols {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		p := pols[id]
		flags := byte(0)
		if p.DeltaEnabled {
			flags = 1
		}
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(p.Window))
		buf = append(buf, byte(p.Mode), flags)
	}
	return buf
}

// decodePolicyTable reads a table whose entries take at least four bytes
// each: an object ID, a window, a mode and the flags.
func decodePolicyTable(data []byte) (map[types.ObjectID]types.Policy, error) {
	r := codec.NewReader("core: policy table", data)
	n := r.Count(r.Uvarint(), 4, maxTableEntries)
	out := make(map[types.ObjectID]types.Policy, n)
	for ; n > 0; n-- {
		id, w, mode, flags := types.ObjectID(r.Uvarint()), time.Duration(r.Uvarint()), types.PolicyMode(r.U8()), r.U8()
		if !mode.Valid() {
			r.Fail("policy mode %d", mode)
		}
		out[id] = types.Policy{Window: w, Mode: mode, DeltaEnabled: flags&1 != 0}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// loadPoliciesLocked decodes the policy table object (if present) into
// d.policies. Called from Open after recovery, under the exclusive
// drive lock.
func (d *Drive) loadPoliciesLocked() error {
	o, ok := d.objects[types.PolicyTable]
	if !ok {
		return nil // pre-upgrade image, or no policy ever set
	}
	if err := d.loadInode(o); err != nil {
		return err
	}
	if o.ino.Size == 0 {
		return nil
	}
	data, err := d.readExtent(o.ino, 0, o.ino.Size)
	if err != nil {
		return err
	}
	pols, err := decodePolicyTable(data)
	if err != nil {
		return err
	}
	d.policies = pols
	return nil
}

// writePolicyTableLocked persists d.policies as the policy object's new
// version, creating the object on first use so pre-policy drive images
// are opened unchanged.
func (d *Drive) writePolicyTableLocked(cred types.Cred) error {
	if _, ok := d.objects[types.PolicyTable]; !ok {
		d.createObjectLocked(types.PolicyTable, types.AdminCred(), []types.ACLEntry{
			{User: types.AdminUser, Perm: types.PermAll},
		}, nil)
	}
	o, err := d.getObject(types.PolicyTable)
	if err != nil {
		return err
	}
	return d.replaceObjectLocked(cred, o, encodePolicyTable(d.policies))
}

// SetPolicy installs (or, for the zero policy, removes) the retention
// policy for id; id 0 addresses the drive-wide default. Administrative
// (Table 1 extension): retention decides what history survives inside
// the detection window, which is exactly the power the paper reserves
// for the administrator.
func (d *Drive) SetPolicy(cred types.Cred, id types.ObjectID, p types.Policy) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.adminGate(cred, types.OpSetPolicy)
	switch {
	case err != nil:
	case !p.Mode.Valid() || p.Window < 0:
		err = types.ErrInval
	case id != 0 && id < types.FirstUserObject:
		// Reserved drive-owned objects must keep every version.
		err = types.ErrInval
	default:
		prev, had := d.policies[id]
		if p.IsZero() {
			delete(d.policies, id)
		} else {
			d.policies[id] = p
		}
		err = d.writePolicyTableLocked(types.AdminCred())
		if err != nil {
			// Failed to persist: keep memory and disk agreeing.
			if had {
				d.policies[id] = prev
			} else {
				delete(d.policies, id)
			}
		}
	}
	d.auditOp(cred, types.OpSetPolicy, id, uint64(p.Window), uint64(p.Mode), p.String(), err)
	return err
}

// GetPolicy returns the policy in force for id (the object's own entry,
// else the drive default) and whether id has its own entry. id 0 asks
// for the drive default itself.
func (d *Drive) GetPolicy(cred types.Cred, id types.ObjectID) (p types.Policy, own bool, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		err = types.ErrDriveStopped
	} else if id == 0 {
		p, own = d.policies[0]
	} else {
		if p, own = d.policies[id]; !own {
			p = d.effectivePolicy(id)
		}
	}
	d.auditOp(cred, types.OpGetPolicy, id, 0, 0, "", err)
	return p, own, err
}
