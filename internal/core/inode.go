package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"s4/internal/codec"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// Inode is the in-memory metadata of one object version. The drive keeps
// the current version's Inode hot; historical versions are materialized
// on demand by undoing journal entries (see history.go).
//
// The block map is sparse: holes and never-written blocks are absent.
// On disk, an inode is written only at checkpoint time as a root block
// plus overflow map blocks (journal-based metadata makes per-update
// inode writes unnecessary, §4.2.2).
type Inode struct {
	ID         types.ObjectID
	Version    uint64
	Size       uint64
	CreateTime types.Timestamp
	ModTime    types.Timestamp
	Attr       []byte
	ACL        []types.ACLEntry
	Deleted    bool
	DeadTime   types.Timestamp

	blocks map[uint64]seglog.BlockAddr

	// Transient reconstruction state (DESIGN.md §16); never persisted —
	// checkpoint encoding walks only the blocks map, and live inodes
	// never carry either field.
	//
	// deltaRef maps a tagged packed-slot reference (installed into
	// blocks by undoing a DeltaMask'd entry) to its decode context: the
	// block-map value — possibly itself a tagged reference — that held
	// the same index just above that entry. Chains link by content, so
	// address churn above never breaks them.
	deltaRef map[uint64]uint64
	// poison marks block indexes whose content at this version was
	// dropped by a retention skip; any poison makes the whole
	// reconstruction unusable (reads fail with ErrNoVersion).
	poison map[uint64]struct{}
}

func newInode(id types.ObjectID, now types.Timestamp, acl []types.ACLEntry) *Inode {
	return &Inode{
		ID:         id,
		Version:    1,
		CreateTime: now,
		ModTime:    now,
		ACL:        append([]types.ACLEntry(nil), acl...),
		blocks:     make(map[uint64]seglog.BlockAddr),
	}
}

// Block returns the address of file block idx (NilAddr for a hole).
func (in *Inode) Block(idx uint64) seglog.BlockAddr { return in.blocks[idx] }

// setBlock installs (or clears, for NilAddr) one mapping.
func (in *Inode) setBlock(idx uint64, addr seglog.BlockAddr) {
	if addr == seglog.NilAddr {
		delete(in.blocks, idx)
		return
	}
	in.blocks[idx] = addr
}

// NumBlocks returns the count of mapped blocks.
func (in *Inode) NumBlocks() int { return len(in.blocks) }

func (in *Inode) setPoison(idx uint64) {
	if in.poison == nil {
		in.poison = make(map[uint64]struct{})
	}
	in.poison[idx] = struct{}{}
}

func (in *Inode) clearPoison(idx uint64) {
	if in.poison != nil {
		delete(in.poison, idx)
	}
}

func (in *Inode) isPoisoned(idx uint64) bool {
	_, ok := in.poison[idx]
	return ok
}

// Clone returns a deep copy; history reconstruction mutates the copy.
func (in *Inode) Clone() *Inode {
	out := *in
	out.Attr = append([]byte(nil), in.Attr...)
	out.ACL = append([]types.ACLEntry(nil), in.ACL...)
	out.blocks = make(map[uint64]seglog.BlockAddr, len(in.blocks))
	for k, v := range in.blocks {
		out.blocks[k] = v
	}
	if in.deltaRef != nil {
		out.deltaRef = make(map[uint64]uint64, len(in.deltaRef))
		for k, v := range in.deltaRef {
			out.deltaRef[k] = v
		}
	}
	if in.poison != nil {
		out.poison = make(map[uint64]struct{}, len(in.poison))
		for k := range in.poison {
			out.poison[k] = struct{}{}
		}
	}
	return &out
}

// Poisoned reports whether any block index of this reconstruction was
// dropped by a retention skip, making the version unreadable.
func (in *Inode) Poisoned() bool { return len(in.poison) > 0 }

// PermFor returns the permissions in force for user: the union of the
// user's entry and the Everyone entry.
func (in *Inode) PermFor(user types.UserID) types.Perm {
	var p types.Perm
	for _, e := range in.ACL {
		if e.User == user || e.User == types.EveryoneID {
			p |= e.Perm
		}
	}
	return p
}

// undo reverts e's effect on the inode, stepping it one version into the
// past. Entries must be applied newest-first.
func (in *Inode) undo(e *journal.Entry) {
	switch e.Type {
	case journal.EntWrite:
		for i, old := range e.Old {
			idx := e.FirstBlock + uint64(i)
			switch {
			case e.SkipMask&(1<<uint(i)) != 0:
				// Retention dropped the pre-entry content: below this
				// entry the index is unreconstructible.
				in.setBlock(idx, seglog.NilAddr)
				in.setPoison(idx)
			case e.DeltaMask&(1<<uint(i)) != 0:
				// Old[i] is a packed-slot reference. Its decode context
				// is the content this index holds just above the entry
				// — record it before the undo replaces it. A context
				// already lost to a newer skip leaves the index
				// poisoned: the delta has nothing to decode against.
				ctx, haveCtx := in.blocks[idx]
				if !haveCtx || in.isPoisoned(idx) {
					in.setBlock(idx, seglog.NilAddr)
					in.setPoison(idx)
					continue
				}
				ref := uint64(old) | deltaRefTag
				if in.deltaRef == nil {
					in.deltaRef = make(map[uint64]uint64)
				}
				in.deltaRef[ref] = uint64(ctx)
				in.blocks[idx] = seglog.BlockAddr(ref)
				in.clearPoison(idx)
			default:
				in.setBlock(idx, old)
				in.clearPoison(idx)
			}
		}
		in.Size = e.OldSize
	case journal.EntTruncate:
		for i, old := range e.Old {
			in.setBlock(e.FirstBlock+uint64(i), old)
			in.clearPoison(e.FirstBlock + uint64(i))
		}
		in.Size = e.OldSize
	case journal.EntSetAttr:
		in.Attr = append([]byte(nil), e.OldAttr...)
	case journal.EntSetACL:
		in.setACLSlot(int(e.ACLIndex), e.OldACL)
	case journal.EntDelete:
		in.Deleted = false
		in.DeadTime = 0
	case journal.EntRevive:
		in.Deleted = true
		in.DeadTime = types.Timestamp(e.OldSize)
	case journal.EntCreate, journal.EntCheckpoint:
		// No state transition to revert; create is handled by the
		// caller (reads before creation fail with ErrNoVersion).
	}
	if e.Type != journal.EntCheckpoint && in.Version > 0 {
		in.Version = e.Version - 1
	}
}

// redo applies e's effect, stepping the inode one version forward.
// Crash recovery replays post-checkpoint entries with it.
func (in *Inode) redo(e *journal.Entry) {
	switch e.Type {
	case journal.EntWrite:
		for i, nw := range e.New {
			in.setBlock(e.FirstBlock+uint64(i), nw)
			// Overwriting makes the index's content known again; the
			// flush rewrite relies on replayed shadows tracking poison
			// precisely (history.go).
			in.clearPoison(e.FirstBlock + uint64(i))
		}
		in.Size = e.NewSize
	case journal.EntTruncate:
		for i := range e.Old {
			in.setBlock(e.FirstBlock+uint64(i), seglog.NilAddr)
			in.clearPoison(e.FirstBlock + uint64(i))
		}
		in.Size = e.NewSize
	case journal.EntSetAttr:
		in.Attr = append([]byte(nil), e.NewAttr...)
	case journal.EntSetACL:
		in.setACLSlot(int(e.ACLIndex), e.NewACL)
	case journal.EntDelete:
		in.Deleted = true
		in.DeadTime = e.Time
	case journal.EntRevive:
		in.Deleted = false
		in.DeadTime = 0
	case journal.EntCreate, journal.EntCheckpoint:
	}
	if e.Type != journal.EntCheckpoint {
		in.Version = e.Version
		in.ModTime = e.Time
	}
}

// aclSlot returns ACL slot idx: the zero entry past the table's end.
func (in *Inode) aclSlot(idx int) types.ACLEntry {
	if idx < len(in.ACL) {
		return in.ACL[idx]
	}
	return types.ACLEntry{}
}

func (in *Inode) setACLSlot(idx int, e types.ACLEntry) {
	for len(in.ACL) <= idx {
		in.ACL = append(in.ACL, types.ACLEntry{})
	}
	in.ACL[idx] = e
	// Trim trailing empty slots.
	for len(in.ACL) > 0 && in.ACL[len(in.ACL)-1] == (types.ACLEntry{}) {
		in.ACL = in.ACL[:len(in.ACL)-1]
	}
}

// Checkpoint encoding.
//
// Root block: magic(4) id(8) version(8) size(8) ctime(8) mtime(8)
// deadtime(8) flags(1) attrLen(2)+attr aclCount(1)+entries
// overflowCount(2)+addrs(8 each) pairCount(4) inline map pairs.
// Overflow blocks hold continuation of the delta-varint pair stream.
const inodeMagic = 0x53344E44 // "S4ND"

// encodeMapPairs emits the block map as delta-encoded (idx, addr) pairs
// sorted by index.
func (in *Inode) encodeMapPairs() []byte {
	idxs := make([]uint64, 0, len(in.blocks))
	for k := range in.blocks {
		idxs = append(idxs, k)
	}
	slices.Sort(idxs)
	var buf []byte
	prev := uint64(0)
	for _, idx := range idxs {
		buf = binary.AppendUvarint(buf, idx-prev)
		buf = binary.AppendUvarint(buf, uint64(in.blocks[idx]))
		prev = idx
	}
	return buf
}

// decodeMapPairs reads count pairs off the front of data. A pair takes
// at least two bytes, so a count data cannot hold is refused before the
// map is sized by it.
func decodeMapPairs(data []byte, count uint32) (map[uint64]seglog.BlockAddr, error) {
	r := codec.NewReader("core: inode map", data)
	n := r.Count(uint64(count), 2, 0)
	m := make(map[uint64]seglog.BlockAddr, n)
	idx := uint64(0)
	for ; n > 0; n-- {
		idx += r.Uvarint()
		m[idx] = seglog.BlockAddr(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkpointBlobs serializes the inode into overflow blocks (returned
// first) and a root-block builder that must be completed with the
// overflow addresses once they are appended to the log.
type checkpointBlob struct {
	overflow [][]byte // map-pair stream chunks, in order
	rootPfx  []byte   // root block up to the overflow list
	pairTail []byte   // pairs that fit inline in the root
	pairs    int
}

func (in *Inode) buildCheckpoint() (*checkpointBlob, error) {
	if len(in.Attr) > types.MaxAttrLen || len(in.ACL) > types.MaxACLEntries {
		return nil, types.ErrTooLarge
	}
	cb := &checkpointBlob{pairs: len(in.blocks)}
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, 256), inodeMagic)
	for _, v := range [...]uint64{uint64(in.ID), in.Version, in.Size, uint64(in.CreateTime), uint64(in.ModTime), uint64(in.DeadTime)} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	flags := byte(0)
	if in.Deleted {
		flags |= 1
	}
	hdr = append(hdr, flags)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(in.Attr)))
	hdr = append(hdr, in.Attr...)
	hdr = append(hdr, byte(len(in.ACL)))
	for _, e := range in.ACL {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(e.User))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(e.Perm))
	}
	cb.rootPfx = hdr

	pairs := in.encodeMapPairs()
	// Root layout after prefix: overflowCount(2) addrs... pairCount(4)
	// inlinePairs. Reserve space for the worst-case overflow list.
	inlineRoom := seglog.BlockSize - len(hdr) - 2 - 4
	if len(pairs) <= inlineRoom {
		cb.pairTail = pairs
		return cb, nil
	}
	// Chunk the stream into overflow blocks at pair boundaries. Each
	// overflow block is prefixed with a 4-byte payload length so the
	// reader can strip block padding before re-joining the stream.
	newChunk := func() []byte { return make([]byte, 4, seglog.BlockSize) }
	chunk := newChunk()
	rest := pairs
	seal := func(c []byte) {
		binary.LittleEndian.PutUint32(c[:4], uint32(len(c)-4))
		cb.overflow = append(cb.overflow, c)
	}
	for len(rest) > 0 {
		// Decode one pair to find its length.
		_, n1 := binary.Uvarint(rest)
		_, n2 := binary.Uvarint(rest[n1:])
		plen := n1 + n2
		if len(chunk)+plen > seglog.BlockSize {
			seal(chunk)
			chunk = newChunk()
		}
		chunk = append(chunk, rest[:plen]...)
		rest = rest[plen:]
	}
	if len(chunk) > 4 {
		seal(chunk)
	}
	// Each overflow address costs 8 bytes in the root; verify fit.
	if len(hdr)+2+8*len(cb.overflow)+4 > seglog.BlockSize {
		return nil, fmt.Errorf("core: inode checkpoint root overflow (%d overflow blocks): %w",
			len(cb.overflow), types.ErrTooLarge)
	}
	return cb, nil
}

// image returns the inode in the root encoding with no overflow blocks,
// as a landmark entry and the segment index carry it, or nil when its
// block map needs overflow blocks.
func (in *Inode) image() []byte {
	cb, err := in.buildCheckpoint()
	if err != nil || len(cb.overflow) > 0 {
		return nil
	}
	return cb.finishRoot(nil)
}

// finishRoot completes the root block given the overflow addresses.
func (cb *checkpointBlob) finishRoot(overflowAddrs []seglog.BlockAddr) []byte {
	root := binary.LittleEndian.AppendUint16(append([]byte(nil), cb.rootPfx...), uint16(len(overflowAddrs)))
	for _, a := range overflowAddrs {
		root = binary.LittleEndian.AppendUint64(root, uint64(a))
	}
	root = binary.LittleEndian.AppendUint32(root, uint32(cb.pairs))
	return append(root, cb.pairTail...)
}

// decodeInodeRoot parses a checkpoint root block, returning the inode
// (with block map populated from inline pairs plus the overflow stream
// read via rd) and the overflow addresses (for usage accounting). A nil
// rd refuses a root that names overflow blocks: an inode image in the
// segment index has none.
func decodeInodeRoot(rd journal.SectorReader, root []byte) (*Inode, []seglog.BlockAddr, error) {
	r := codec.NewReader("core: inode root", root)
	if r.U32() != inodeMagic {
		return nil, nil, r.Fail("bad magic")
	}
	in := &Inode{
		ID:         types.ObjectID(r.U64()),
		Version:    r.U64(),
		Size:       r.U64(),
		CreateTime: types.Timestamp(r.U64()),
		ModTime:    types.Timestamp(r.U64()),
		DeadTime:   types.Timestamp(r.U64()),
		Deleted:    r.U8()&1 != 0,
	}
	in.Attr = bytes.Clone(r.Bytes(r.Count(uint64(r.U16()), 1, types.MaxAttrLen)))
	for n := r.Count(uint64(r.U8()), 8, types.MaxACLEntries); n > 0; n-- {
		in.ACL = append(in.ACL, types.ACLEntry{User: types.UserID(r.U32()), Perm: types.Perm(r.U32())})
	}
	var overAddrs []seglog.BlockAddr
	for n := r.Count(uint64(r.U16()), 8, 0); n > 0; n-- {
		overAddrs = append(overAddrs, seglog.BlockAddr(r.U64()))
	}
	pairCount := r.U32()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	// Most roots, and every image, hold the whole pair stream inline:
	// no scratch block, no copy.
	stream := r.Rest()
	if len(overAddrs) > 0 {
		if rd == nil {
			return nil, nil, r.Fail("image names %d overflow blocks", len(overAddrs))
		}
		stream = nil
		blk := make([]byte, seglog.BlockSize)
		for _, a := range overAddrs {
			if err := rd.Read(a, blk); err != nil {
				return nil, nil, fmt.Errorf("core: inode overflow read: %w", err)
			}
			c := codec.NewReader("core: inode overflow block", blk)
			stream = append(stream, c.Bytes(int(c.U32()))...)
			if err := c.Err(); err != nil {
				return nil, nil, err
			}
		}
		stream = append(stream, r.Rest()...)
	}
	m, err := decodeMapPairs(stream, pairCount)
	if err != nil {
		return nil, nil, err
	}
	in.blocks = m
	return in, overAddrs, nil
}
