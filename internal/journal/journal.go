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
	"math/bits"

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

// EncodedSize returns the exact encoded length of e, without encoding it.
func (e *Entry) EncodedSize() int {
	n := 1 + uvarintLen(e.Version) + uvarintLen(uint64(e.Time)) + uvarintLen(uint64(e.User)) + uvarintLen(uint64(e.Client))
	switch e.Type {
	case EntWrite:
		n += uvarintLen(e.FirstBlock) + uvarintLen(uint64(len(e.New))) +
			addrsLen(e.New) + addrsLen(e.Old) + uvarintLen(e.OldSize) + uvarintLen(e.NewSize)
		if e.DeltaMask != 0 || e.SkipMask != 0 {
			n += uvarintLen(uint64(e.DeltaMask)) + uvarintLen(uint64(e.SkipMask)) + addrsLen(e.Dropped)
		}
	case EntTruncate:
		n += uvarintLen(e.FirstBlock) + uvarintLen(uint64(len(e.Old))) +
			addrsLen(e.Old) + uvarintLen(e.OldSize) + uvarintLen(e.NewSize)
	case EntSetAttr:
		n += uvarintLen(uint64(len(e.OldAttr))) + len(e.OldAttr) + uvarintLen(uint64(len(e.NewAttr))) + len(e.NewAttr)
	case EntSetACL:
		n += 1 + uvarintLen(uint64(e.OldACL.User)) + uvarintLen(uint64(e.OldACL.Perm)) +
			uvarintLen(uint64(e.NewACL.User)) + uvarintLen(uint64(e.NewACL.Perm))
	case EntDelete, EntRevive:
		n += uvarintLen(e.OldSize)
	case EntCheckpoint:
		n += uvarintLen(uint64(e.InodeAddr))
	}
	return n
}

// uvarintLen is the length of the uvarint encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// addrsLen is the encoded length of a list of block addresses.
func addrsLen(as []seglog.BlockAddr) int {
	n := 0
	for _, a := range as {
		n += uvarintLen(uint64(a))
	}
	return n
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
	var slab []seglog.BlockAddr
	rest, err := e.decode(data, &slab)
	return e, rest, err
}

// cursor reads an entry's fields off the front of data. The first
// malformed field latches err; every read after it returns zero, so a
// decoder checks once, at the end.
type cursor struct {
	data []byte
	err  error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.data = nil
}

func (c *cursor) u8() byte {
	if len(c.data) < 1 {
		c.fail(fmt.Errorf("journal: short entry: %w", types.ErrCorrupt))
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

func (c *cursor) uvarint() uint64 {
	v, m := binary.Uvarint(c.data)
	if m <= 0 {
		c.fail(fmt.Errorf("journal: bad varint: %w", types.ErrCorrupt))
		return 0
	}
	c.data = c.data[m:]
	return v
}

// blob returns a private copy of a length-prefixed byte field (nil when
// empty).
func (c *cursor) blob() []byte {
	n := c.uvarint()
	if n > uint64(len(c.data)) {
		c.fail(fmt.Errorf("journal: truncated bytes field: %w", types.ErrCorrupt))
		return nil
	}
	b := append([]byte(nil), c.data[:n]...)
	c.data = c.data[n:]
	return b
}

// count reads the number of blocks an entry spans.
func (c *cursor) count() int {
	n := c.uvarint()
	if n > MaxBlocksPerEntry {
		c.fail(fmt.Errorf("journal: entry spans %d blocks: %w", n, types.ErrCorrupt))
		return 0
	}
	return int(n)
}

// slabChunk is how many addresses one slab allocation holds: the New
// and Old lists of the largest entry. Any one list fits a fresh chunk,
// and a sector of small writes fits one chunk whole.
const slabChunk = 2 * MaxBlocksPerEntry

// addrs reads n block addresses into a list carved from *slab, starting
// a new chunk when the current one cannot hold it. The list's capacity
// is its length, so an append to it reallocates instead of running into
// the list carved next.
func (c *cursor) addrs(n int, slab *[]seglog.BlockAddr) []seglog.BlockAddr {
	if n == 0 {
		return []seglog.BlockAddr{}
	}
	s := *slab
	if n > cap(s)-len(s) {
		s = make([]seglog.BlockAddr, 0, slabChunk)
	}
	lo, hi := len(s), len(s)+n
	*slab = s[:hi]
	list := s[lo:hi:hi]
	for i := range list {
		list[i] = seglog.BlockAddr(c.uvarint())
	}
	return list
}

// decode parses one entry from data into e, which must be zero, and
// returns the remaining bytes. Address lists are carved from *slab (see
// cursor.addrs) and attribute blobs are copied: nothing in e aliases data.
func (e *Entry) decode(data []byte, slab *[]seglog.BlockAddr) ([]byte, error) {
	c := cursor{data: data}
	e.Type = EntryType(c.u8())
	wire2 := e.Type == entWrite2
	if wire2 {
		// Normalize: in-memory entries are always EntWrite; the v2 tag
		// only signals the three extra trailing fields.
		e.Type = EntWrite
	}
	e.Version = c.uvarint()
	e.Time = types.Timestamp(c.uvarint())
	e.User = types.UserID(c.uvarint())
	e.Client = types.ClientID(c.uvarint())

	switch e.Type {
	case EntCreate:
	case EntWrite:
		e.FirstBlock = c.uvarint()
		n := c.count()
		e.New = c.addrs(n, slab)
		e.Old = c.addrs(n, slab)
		e.OldSize = c.uvarint()
		e.NewSize = c.uvarint()
		if wire2 {
			e.DeltaMask = uint32(c.uvarint())
			e.SkipMask = uint32(c.uvarint())
			lim := uint32(1)<<uint(n) - 1
			if c.err == nil && (e.DeltaMask&^lim != 0 || e.SkipMask&^lim != 0 ||
				e.DeltaMask&e.SkipMask != 0 || e.DeltaMask|e.SkipMask == 0) {
				c.fail(fmt.Errorf("journal: bad entry masks %#x/%#x over %d blocks: %w",
					e.DeltaMask, e.SkipMask, n, types.ErrCorrupt))
			}
			if c.err == nil && e.SkipMask != 0 {
				e.Dropped = c.addrs(bits.OnesCount32(e.SkipMask), slab)
			}
		}
	case EntTruncate:
		e.FirstBlock = c.uvarint()
		e.Old = c.addrs(c.count(), slab)
		e.OldSize = c.uvarint()
		e.NewSize = c.uvarint()
	case EntSetAttr:
		e.OldAttr = c.blob()
		e.NewAttr = c.blob()
	case EntSetACL:
		e.ACLIndex = c.u8()
		e.OldACL.User = types.UserID(c.uvarint())
		e.OldACL.Perm = types.Perm(c.uvarint())
		e.NewACL.User = types.UserID(c.uvarint())
		e.NewACL.Perm = types.Perm(c.uvarint())
	case EntDelete, EntRevive:
		e.OldSize = c.uvarint()
	case EntCheckpoint:
		e.InodeAddr = seglog.BlockAddr(c.uvarint())
	default:
		c.fail(fmt.Errorf("journal: unknown entry type %d: %w", e.Type, types.ErrCorrupt))
	}
	return c.data, c.err
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

// zeroCRC stands in for the crc field when a sector's checksum is
// verified (a local array would escape to the heap on every decode).
var zeroCRC [4]byte

// minEntrySize is the shortest encoding an entry can have: its type and
// four one-byte varints.
const minEntrySize = 5

// DecodeSector parses a journal sector, returning the owning object,
// the previous-sector pointer, and the entries oldest first. ok is
// false (with no error) for an empty slot. The entries never alias data.
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
	if count*minEntrySize > len(rest) {
		return 0, 0, nil, false, fmt.Errorf("journal: %d entries in %d bytes: %w", count, len(rest), types.ErrCorrupt)
	}
	// Each entry decodes in place and every address list of the sector
	// comes out of one slab: a deep chain is thousands of ~250-byte
	// entries, and returning each by value plus two makes per write entry
	// cost more than parsing them.
	entries = make([]Entry, count)
	var slab []seglog.BlockAddr
	for i := range entries {
		if rest, err = entries[i].decode(rest, &slab); err != nil {
			return 0, 0, nil, false, err
		}
	}
	// The checksum covers exactly the bytes the decode consumed;
	// anything beyond is stale residue from a longer prior encoding
	// of this in-place-rewritten sector and is deliberately excluded.
	consumed := len(data) - len(rest)
	c := crc32.Update(0, crc32.IEEETable, data[:22])
	c = crc32.Update(c, crc32.IEEETable, zeroCRC[:])
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
// came from (the decoder copies attribute blobs and fills its own address
// lists).
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
