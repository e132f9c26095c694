// Package journal implements S4's journal-based metadata (OSDI '00,
// §4.2.2).
//
// Because clients are never trusted to demarcate versions, every update
// creates a new version. Writing a fresh inode (and its indirect-block
// path) per update would multiply disk usage — the paper observed up to
// 4x growth. Instead, S4 records each modification as a compact journal
// entry carrying both the old and the new state (block pointers, sizes,
// attributes), so that:
//
//   - current metadata can be written lazily (checkpointed on cache
//     eviction), since any version is recreatable from the journal;
//   - any historical version is recovered by walking the object's entry
//     chain backward in time, undoing entries newer than the requested
//     instant;
//   - cross-version differencing knows exactly which blocks changed.
//
// Entries for one object are packed into journal sectors (one log block
// each); sectors chain backward in time via a previous-sector pointer
// recorded in the sector header.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"s4/internal/seglog"
	"s4/internal/types"
)

// EntryType discriminates journal entries.
type EntryType uint8

// Entry types. Every modification RPC maps to exactly one type.
const (
	EntInvalid EntryType = iota
	// EntCreate marks object birth. Versions before it do not exist.
	EntCreate
	// EntWrite replaces the block pointers for a contiguous block range
	// and possibly extends the object.
	EntWrite
	// EntTruncate shrinks or grows the object, recording the block
	// pointers discarded by a shrink so they can be resurrected.
	EntTruncate
	// EntSetAttr replaces the opaque attribute blob.
	EntSetAttr
	// EntSetACL replaces one ACL table slot.
	EntSetACL
	// EntDelete marks object death. The object's blocks live on in the
	// history pool until they age out of the detection window.
	EntDelete
	// EntCheckpoint records that a complete copy of the object's
	// metadata was written to the log at InodeAddr; it is the anchor
	// for crash recovery and the boundary for journal-space pruning.
	EntCheckpoint
	// EntRevive resurrects a deleted object (the copy-forward restore
	// of §3.3 applied to a deleted object). OldSize carries the prior
	// DeadTime so undo can restore the deleted state.
	EntRevive
	// entWrite2 is a WIRE-ONLY discriminator: an EntWrite whose DeltaMask
	// or SkipMask is non-zero encodes with this tag so the three extra
	// fields have somewhere to live without perturbing the layout old
	// images use. Decode normalizes it back to EntWrite — in-memory
	// entries never carry this type.
	entWrite2
)

func (t EntryType) String() string {
	switch t {
	case EntCreate:
		return "create"
	case EntWrite:
		return "write"
	case EntTruncate:
		return "truncate"
	case EntSetAttr:
		return "setattr"
	case EntSetACL:
		return "setacl"
	case EntDelete:
		return "delete"
	case EntCheckpoint:
		return "checkpoint"
	case EntRevive:
		return "revive"
	}
	return fmt.Sprintf("entry(%d)", uint8(t))
}

// MaxBlocksPerEntry bounds the pointer pairs one EntWrite/EntTruncate
// may carry so an entry always fits a 512-byte journal sector; larger
// operations are split by the drive.
const MaxBlocksPerEntry = 24

// Entry is one metadata modification record. Only the fields relevant
// to Type are meaningful.
type Entry struct {
	Type    EntryType
	Version uint64 // object version this entry produced
	Time    types.Timestamp
	User    types.UserID
	Client  types.ClientID

	// EntWrite, EntTruncate: the affected contiguous block range starts
	// at FirstBlock. Old holds the pointers valid before the change
	// (NilAddr for holes or past-EOF); New holds the replacements
	// (empty for truncate).
	FirstBlock uint64
	Old        []seglog.BlockAddr
	New        []seglog.BlockAddr
	OldSize    uint64
	NewSize    uint64

	// EntSetAttr.
	OldAttr []byte
	NewAttr []byte

	// EntSetACL.
	ACLIndex uint8
	OldACL   types.ACLEntry
	NewACL   types.ACLEntry

	// EntCheckpoint.
	InodeAddr seglog.BlockAddr

	// Delta-compressed history (DESIGN.md §16); EntWrite only. DeltaMask
	// bit k means Old[k] is not a plain block address but a packed
	// delta-block reference: packedBlockAddr*DeltaSlotsPerBlock + slot.
	// SkipMask bit k means the outgoing version's block k was dropped by
	// the retention policy: Old[k] is NilAddr and the freed address is
	// recorded in Dropped (one entry per set SkipMask bit, ascending k)
	// solely so indexed crash recovery can settle usage accounting.
	// History walks treat a skipped index as poisoned — the affected
	// versions read as ErrNoVersion, never as manufactured zeros.
	DeltaMask uint32
	SkipMask  uint32
	Dropped   []seglog.BlockAddr
}

// DeltaSlotsPerBlock is the packing factor used by delta-block
// references in DeltaMask'd Old slots (ref = addr*DeltaSlotsPerBlock +
// slot). It must be at least delta.MaxSlots; 32 leaves headroom.
const DeltaSlotsPerBlock = 32

// EncodedSize returns the exact encoded length of e.
func (e *Entry) EncodedSize() int {
	return len(e.Encode(nil))
}

// Encode appends e's encoding to dst and returns the extended slice.
func (e *Entry) Encode(dst []byte) []byte {
	put := func(b ...byte) { dst = append(dst, b...) }
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		m := binary.PutUvarint(tmp[:], v)
		put(tmp[:m]...)
	}
	putBytes := func(b []byte) {
		putU(uint64(len(b)))
		put(b...)
	}

	wireType := e.Type
	if e.Type == EntWrite && (e.DeltaMask != 0 || e.SkipMask != 0) {
		// Masked entries use the v2 wire tag; plain writes keep the
		// original layout so pre-upgrade images decode byte-identically.
		wireType = entWrite2
	}
	put(byte(wireType))
	putU(e.Version)
	putU(uint64(e.Time))
	putU(uint64(e.User))
	putU(uint64(e.Client))
	switch e.Type {
	case EntCreate:
		// marker only
	case EntWrite:
		putU(e.FirstBlock)
		putU(uint64(len(e.New)))
		for _, a := range e.New {
			putU(uint64(a))
		}
		for _, a := range e.Old {
			putU(uint64(a))
		}
		putU(e.OldSize)
		putU(e.NewSize)
		if wireType == entWrite2 {
			putU(uint64(e.DeltaMask))
			putU(uint64(e.SkipMask))
			for _, a := range e.Dropped {
				putU(uint64(a))
			}
		}
	case EntTruncate:
		putU(e.FirstBlock)
		putU(uint64(len(e.Old)))
		for _, a := range e.Old {
			putU(uint64(a))
		}
		putU(e.OldSize)
		putU(e.NewSize)
	case EntSetAttr:
		putBytes(e.OldAttr)
		putBytes(e.NewAttr)
	case EntSetACL:
		put(e.ACLIndex)
		putU(uint64(e.OldACL.User))
		putU(uint64(e.OldACL.Perm))
		putU(uint64(e.NewACL.User))
		putU(uint64(e.NewACL.Perm))
	case EntDelete, EntRevive:
		putU(e.OldSize)
	case EntCheckpoint:
		putU(uint64(e.InodeAddr))
	}
	return dst
}

// Decode parses one entry from data, returning it and the remaining
// bytes.
func Decode(data []byte) (Entry, []byte, error) {
	var e Entry
	if len(data) < 1 {
		return e, nil, fmt.Errorf("journal: short entry: %w", types.ErrCorrupt)
	}
	e.Type = EntryType(data[0])
	data = data[1:]
	wire2 := false
	if e.Type == entWrite2 {
		// Normalize: in-memory entries are always EntWrite; the v2 tag
		// only signals the three extra trailing fields.
		e.Type = EntWrite
		wire2 = true
	}
	getU := func() (uint64, error) {
		v, m := binary.Uvarint(data)
		if m <= 0 {
			return 0, fmt.Errorf("journal: bad varint: %w", types.ErrCorrupt)
		}
		data = data[m:]
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		n, err := getU()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("journal: truncated bytes field: %w", types.ErrCorrupt)
		}
		b := append([]byte(nil), data[:n]...)
		data = data[n:]
		return b, nil
	}
	var err error
	var v uint64
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Version = v
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Time = types.Timestamp(v)
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.User = types.UserID(v)
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Client = types.ClientID(v)

	switch e.Type {
	case EntCreate:
	case EntWrite:
		if e.FirstBlock, err = getU(); err != nil {
			return e, nil, err
		}
		n, err := getU()
		if err != nil {
			return e, nil, err
		}
		if n > MaxBlocksPerEntry {
			return e, nil, fmt.Errorf("journal: entry spans %d blocks: %w", n, types.ErrCorrupt)
		}
		e.New = make([]seglog.BlockAddr, n)
		e.Old = make([]seglog.BlockAddr, n)
		for i := range e.New {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.New[i] = seglog.BlockAddr(v)
		}
		for i := range e.Old {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.Old[i] = seglog.BlockAddr(v)
		}
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
		if e.NewSize, err = getU(); err != nil {
			return e, nil, err
		}
		if wire2 {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.DeltaMask = uint32(v)
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.SkipMask = uint32(v)
			lim := uint32(1)<<uint(n) - 1
			if e.DeltaMask&^lim != 0 || e.SkipMask&^lim != 0 ||
				e.DeltaMask&e.SkipMask != 0 || e.DeltaMask|e.SkipMask == 0 {
				return e, nil, fmt.Errorf("journal: bad entry masks %#x/%#x over %d blocks: %w",
					e.DeltaMask, e.SkipMask, n, types.ErrCorrupt)
			}
			for m := e.SkipMask; m != 0; m &= m - 1 {
				if v, err = getU(); err != nil {
					return e, nil, err
				}
				e.Dropped = append(e.Dropped, seglog.BlockAddr(v))
			}
		}
	case EntTruncate:
		if e.FirstBlock, err = getU(); err != nil {
			return e, nil, err
		}
		n, err := getU()
		if err != nil {
			return e, nil, err
		}
		if n > MaxBlocksPerEntry {
			return e, nil, fmt.Errorf("journal: entry spans %d blocks: %w", n, types.ErrCorrupt)
		}
		e.Old = make([]seglog.BlockAddr, n)
		for i := range e.Old {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.Old[i] = seglog.BlockAddr(v)
		}
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
		if e.NewSize, err = getU(); err != nil {
			return e, nil, err
		}
	case EntSetAttr:
		if e.OldAttr, err = getBytes(); err != nil {
			return e, nil, err
		}
		if e.NewAttr, err = getBytes(); err != nil {
			return e, nil, err
		}
	case EntSetACL:
		if len(data) < 1 {
			return e, nil, fmt.Errorf("journal: truncated setacl: %w", types.ErrCorrupt)
		}
		e.ACLIndex = data[0]
		data = data[1:]
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.OldACL.User = types.UserID(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.OldACL.Perm = types.Perm(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.NewACL.User = types.UserID(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.NewACL.Perm = types.Perm(v)
	case EntDelete, EntRevive:
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
	case EntCheckpoint:
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.InodeAddr = seglog.BlockAddr(v)
	default:
		return e, nil, fmt.Errorf("journal: unknown entry type %d: %w", e.Type, types.ErrCorrupt)
	}
	return e, data, nil
}

// Journal sectors are 512-byte units — the paper's "journal sectors"
// are literal disk sectors, which is what keeps per-object metadata
// history compact. The drive packs up to SectorsPerBlock of them (from
// different objects) into each 4KB log block and addresses an
// individual sector as blockAddr*SectorsPerBlock + slot.
//
// Sector layout: magic(4) obj(8) prev(8) count(2) crc(4) then
// packed entries. The CRC32 (IEEE) covers the encoded sector — header
// with the crc field zeroed, plus the entry bytes — and is what stands
// between bit rot and the replay path: journal blocks in the open
// segment are rewritten in place on every sync, so partial segment
// summaries cannot pin a block-level checksum for them (see
// seglog.encodeSummaryLocked) and the sector must police its own
// integrity until the seal. Any other magic is an empty slot: no
// decode arm admits bytes without a checksum.
const (
	sectorMagic2     = 0x53344A32 // "S4J2": self-checksummed
	SectorHeaderSize = 4 + 8 + 8 + 2 + 4
	// SectorSize is the on-disk size of one journal sector.
	SectorSize = 512
	// SectorsPerBlock is how many sectors one log block holds.
	SectorsPerBlock = seglog.BlockSize / SectorSize
	// SectorCapacity is the payload space for entries in one sector.
	SectorCapacity = SectorSize - SectorHeaderSize
)

// SectorAddr addresses one 512-byte journal sector inside a log block:
// blockAddr*SectorsPerBlock + slot. The zero value is the nil address
// (block 0 holds the superblock, so no real sector maps to 0).
type SectorAddr uint64

// NilSector is the null sector address.
const NilSector SectorAddr = 0

// Block returns the log block containing s.
func (s SectorAddr) Block() seglog.BlockAddr {
	return seglog.BlockAddr(uint64(s) / SectorsPerBlock)
}

// Slot returns s's sector index within its block.
func (s SectorAddr) Slot() int { return int(uint64(s) % SectorsPerBlock) }

// MakeSectorAddr composes a sector address.
func MakeSectorAddr(b seglog.BlockAddr, slot int) SectorAddr {
	return SectorAddr(uint64(b)*SectorsPerBlock + uint64(slot))
}

// EncodeSector packs entries (oldest first) for obj into one journal
// sector whose backward chain pointer is prev. It fails if the entries
// do not fit; callers size batches with EncodedSize.
func EncodeSector(obj types.ObjectID, prev SectorAddr, entries []*Entry) ([]byte, error) {
	if len(entries) == 0 || len(entries) > 0xFFFF {
		return nil, fmt.Errorf("journal: sector with %d entries: %w", len(entries), types.ErrInval)
	}
	buf := make([]byte, SectorHeaderSize, SectorSize)
	binary.LittleEndian.PutUint32(buf[0:], sectorMagic2)
	binary.LittleEndian.PutUint64(buf[4:], uint64(obj))
	binary.LittleEndian.PutUint64(buf[12:], uint64(prev))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(entries)))
	for _, e := range entries {
		buf = e.Encode(buf)
		if len(buf) > SectorSize {
			return nil, fmt.Errorf("journal: entries overflow sector (%d bytes): %w", len(buf), types.ErrTooLarge)
		}
	}
	// The crc field is still zero here, so checksumming the whole buffer
	// matches the verification in DecodeSector.
	binary.LittleEndian.PutUint32(buf[22:], crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodeSector parses a journal sector, returning the owning object,
// the previous-sector pointer, and the entries oldest first. ok is
// false (with no error) for an empty slot.
func DecodeSector(data []byte) (obj types.ObjectID, prev SectorAddr, entries []Entry, ok bool, err error) {
	if len(data) < SectorHeaderSize {
		return 0, 0, nil, false, fmt.Errorf("journal: short sector: %w", types.ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:]) != sectorMagic2 {
		return 0, 0, nil, false, nil
	}
	obj = types.ObjectID(binary.LittleEndian.Uint64(data[4:]))
	prev = SectorAddr(binary.LittleEndian.Uint64(data[12:]))
	count := int(binary.LittleEndian.Uint16(data[20:]))
	rest := data[SectorHeaderSize:]
	entries = make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		var e Entry
		e, rest, err = Decode(rest)
		if err != nil {
			return 0, 0, nil, false, err
		}
		entries = append(entries, e)
	}
	// The checksum covers exactly the bytes the decode consumed;
	// anything beyond is stale residue from a longer prior encoding
	// of this in-place-rewritten sector and is deliberately excluded.
	consumed := len(data) - len(rest)
	var zero [4]byte
	c := crc32.Update(0, crc32.IEEETable, data[:22])
	c = crc32.Update(c, crc32.IEEETable, zero[:])
	c = crc32.Update(c, crc32.IEEETable, data[26:consumed])
	if c != binary.LittleEndian.Uint32(data[22:]) {
		return 0, 0, nil, false, fmt.Errorf("journal: sector checksum mismatch: %w", types.ErrCorrupt)
	}
	return obj, prev, entries, true, nil
}

// SectorReader reads a log block by address; *seglog.Log satisfies it.
type SectorReader interface {
	Read(addr seglog.BlockAddr, buf []byte) error
}

// ReadSector fetches and decodes the journal sector at sa.
func ReadSector(r SectorReader, sa SectorAddr) (obj types.ObjectID, prev SectorAddr, entries []Entry, err error) {
	return ReadSectorInto(r, sa, make([]byte, seglog.BlockSize))
}

// ReadSectorInto is ReadSector through the caller's block buffer, which
// is free again on return: decoded entries never alias the bytes they
// came from (Decode copies attribute blobs and makes its pointer lists).
// A walk over many sectors reads them all through one buffer.
func ReadSectorInto(r SectorReader, sa SectorAddr, buf []byte) (obj types.ObjectID, prev SectorAddr, entries []Entry, err error) {
	if err := r.Read(sa.Block(), buf); err != nil {
		return 0, 0, nil, err
	}
	slot := sa.Slot()
	data := buf[slot*SectorSize : (slot+1)*SectorSize]
	obj, prev, entries, ok, err := DecodeSector(data)
	if err != nil {
		return 0, 0, nil, err
	}
	if !ok {
		return 0, 0, nil, fmt.Errorf("journal: empty sector at %d: %w", sa, types.ErrCorrupt)
	}
	return obj, prev, entries, nil
}

// WalkBackward visits an object's journal entries newest-first, starting
// from the sector at head and following previous pointers, until fn
// returns stop or the chain ends. Unflushed in-memory entries must be
// visited by the caller before calling WalkBackward. The walk reads
// every sector through one block buffer; an entry handed to fn stays
// valid, and unshared, after fn returns.
func WalkBackward(r SectorReader, obj types.ObjectID, head SectorAddr, fn func(e *Entry) (stop bool, err error)) error {
	buf := make([]byte, seglog.BlockSize)
	for addr := head; addr != NilSector; {
		gotObj, prev, entries, err := ReadSectorInto(r, addr, buf)
		if err != nil {
			return err
		}
		if gotObj != obj {
			return fmt.Errorf("journal: sector at %d belongs to %v, expected %v: %w", addr, gotObj, obj, types.ErrCorrupt)
		}
		for i := len(entries) - 1; i >= 0; i-- {
			stop, err := fn(&entries[i])
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		addr = prev
	}
	return nil
}
