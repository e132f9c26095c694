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
	"math"
	"math/bits"
	"slices"

	"s4/internal/codec"
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
	// EntCheckpoint is a landmark: it carries a complete copy of the
	// object's metadata at its version inline (Image), so a walk that
	// meets it can stop there instead of undoing further.
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

	// EntCheckpoint: the inode image at Version, in the drive's
	// checkpoint root encoding. The journal treats it as opaque bytes.
	Image []byte

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

// appendAddrs appends a list of block addresses as uvarints.
func appendAddrs(dst []byte, as []seglog.BlockAddr) []byte {
	for _, a := range as {
		dst = binary.AppendUvarint(dst, uint64(a))
	}
	return dst
}

// appendBlob appends a length-prefixed byte field.
func appendBlob(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Encode appends e's encoding to dst and returns the extended slice.
func (e *Entry) Encode(dst []byte) []byte {
	wireType := e.Type
	if e.Type == EntWrite && (e.DeltaMask != 0 || e.SkipMask != 0) {
		// Masked entries use the v2 wire tag; plain writes keep the
		// original layout so pre-upgrade images decode byte-identically.
		wireType = entWrite2
	}
	dst = append(dst, byte(wireType))
	dst = binary.AppendUvarint(dst, e.Version)
	dst = binary.AppendUvarint(dst, uint64(e.Time))
	dst = binary.AppendUvarint(dst, uint64(e.User))
	dst = binary.AppendUvarint(dst, uint64(e.Client))
	switch e.Type {
	case EntCreate:
		// marker only
	case EntWrite:
		dst = binary.AppendUvarint(dst, e.FirstBlock)
		dst = binary.AppendUvarint(dst, uint64(len(e.New)))
		dst = appendAddrs(appendAddrs(dst, e.New), e.Old)
		dst = binary.AppendUvarint(dst, e.OldSize)
		dst = binary.AppendUvarint(dst, e.NewSize)
		if wireType == entWrite2 {
			dst = binary.AppendUvarint(dst, uint64(e.DeltaMask))
			dst = binary.AppendUvarint(dst, uint64(e.SkipMask))
			dst = appendAddrs(dst, e.Dropped)
		}
	case EntTruncate:
		dst = binary.AppendUvarint(dst, e.FirstBlock)
		dst = binary.AppendUvarint(dst, uint64(len(e.Old)))
		dst = appendAddrs(dst, e.Old)
		dst = binary.AppendUvarint(dst, e.OldSize)
		dst = binary.AppendUvarint(dst, e.NewSize)
	case EntSetAttr:
		dst = appendBlob(appendBlob(dst, e.OldAttr), e.NewAttr)
	case EntSetACL:
		dst = append(dst, e.ACLIndex)
		dst = binary.AppendUvarint(dst, uint64(e.OldACL.User))
		dst = binary.AppendUvarint(dst, uint64(e.OldACL.Perm))
		dst = binary.AppendUvarint(dst, uint64(e.NewACL.User))
		dst = binary.AppendUvarint(dst, uint64(e.NewACL.Perm))
	case EntDelete, EntRevive:
		dst = binary.AppendUvarint(dst, e.OldSize)
	case EntCheckpoint:
		dst = appendBlob(dst, e.Image)
	}
	return dst
}

// Decode parses one entry from data, returning it and the remaining
// bytes.
func Decode(data []byte) (Entry, []byte, error) {
	var e Entry
	var slab []seglog.BlockAddr
	r := codec.NewReader("journal", data)
	e.decode(&r, &slab)
	return e, r.Rest(), r.Err()
}

// slabChunk is how many addresses one slab allocation holds: the New
// and Old lists of the largest entry. Any one list fits a fresh chunk,
// and a sector of small writes fits one chunk whole.
const slabChunk = 2 * MaxBlocksPerEntry

// addrs reads n block addresses into a list carved from *slab, starting
// a new chunk when the current one cannot hold it. The list's capacity
// is its length, so an append to it reallocates instead of running into
// the list carved next.
func addrs(r *codec.Reader, n int, slab *[]seglog.BlockAddr) []seglog.BlockAddr {
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
		list[i] = seglog.BlockAddr(r.Uvarint())
	}
	return list
}

// decode parses one entry off r into e, which must be zero. Address
// lists are carved from *slab (see addrs) and attribute blobs and
// images are copied: nothing in e aliases the reader's bytes.
func (e *Entry) decode(r *codec.Reader, slab *[]seglog.BlockAddr) {
	e.Type = EntryType(r.U8())
	wire2 := e.Type == entWrite2
	if wire2 {
		// Normalize: in-memory entries are always EntWrite; the v2 tag
		// only signals the three extra trailing fields.
		e.Type = EntWrite
	}
	e.Version = r.Uvarint()
	e.Time = types.Timestamp(r.Uvarint())
	e.User = types.UserID(r.Uvarint())
	e.Client = types.ClientID(r.Uvarint())

	switch e.Type {
	case EntCreate:
	case EntWrite:
		e.FirstBlock = r.Uvarint()
		n := r.Count(r.Uvarint(), 1, MaxBlocksPerEntry)
		e.New = addrs(r, n, slab)
		e.Old = addrs(r, n, slab)
		e.OldSize = r.Uvarint()
		e.NewSize = r.Uvarint()
		if wire2 {
			e.DeltaMask = uint32(r.Uvarint())
			e.SkipMask = uint32(r.Uvarint())
			lim := uint32(1)<<uint(n) - 1
			if e.DeltaMask&^lim != 0 || e.SkipMask&^lim != 0 || e.DeltaMask&e.SkipMask != 0 || e.DeltaMask|e.SkipMask == 0 {
				r.Fail("bad entry masks %#x/%#x over %d blocks", e.DeltaMask, e.SkipMask, n)
			}
			if r.Err() == nil && e.SkipMask != 0 {
				e.Dropped = addrs(r, bits.OnesCount32(e.SkipMask), slab)
			}
		}
	case EntTruncate:
		e.FirstBlock = r.Uvarint()
		e.Old = addrs(r, r.Count(r.Uvarint(), 1, MaxBlocksPerEntry), slab)
		e.OldSize = r.Uvarint()
		e.NewSize = r.Uvarint()
	case EntSetAttr:
		e.OldAttr = r.Blob()
		e.NewAttr = r.Blob()
	case EntSetACL:
		e.ACLIndex = r.U8()
		e.OldACL.User = types.UserID(r.Uvarint())
		e.OldACL.Perm = types.Perm(r.Uvarint())
		e.NewACL.User = types.UserID(r.Uvarint())
		e.NewACL.Perm = types.Perm(r.Uvarint())
	case EntDelete, EntRevive:
		e.OldSize = r.Uvarint()
	case EntCheckpoint:
		e.Image = r.Blob()
	default:
		r.Fail("unknown entry type %d", e.Type)
	}
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

// FitSector packs the longest prefix of entries (oldest first) that
// fits one journal sector for obj, whose backward chain pointer is prev,
// and returns the sector and how many entries it holds. Each entry is
// encoded once, straight into the sector; the first one that overflows
// it ends the sector. n is 0, and the sector nil, when entries is empty
// or its first entry alone is larger than a sector.
func FitSector(obj types.ObjectID, prev SectorAddr, entries []*Entry) (sector []byte, n int) {
	buf := make([]byte, SectorHeaderSize, SectorSize)
	for n < len(entries) { // n stays far below the count field's 0xFFFF
		end := len(buf)
		if buf = entries[n].Encode(buf); len(buf) > SectorSize {
			buf = buf[:end]
			break
		}
		n++
	}
	if n == 0 {
		return nil, 0
	}
	binary.LittleEndian.PutUint32(buf[0:], sectorMagic2)
	binary.LittleEndian.PutUint64(buf[4:], uint64(obj))
	binary.LittleEndian.PutUint64(buf[12:], uint64(prev))
	binary.LittleEndian.PutUint16(buf[20:], uint16(n))
	// The crc field is still zero here, so checksumming the whole buffer
	// matches the verification in DecodeSector.
	binary.LittleEndian.PutUint32(buf[22:], crc32.ChecksumIEEE(buf))
	return buf, n
}

// EncodeSector packs entries (oldest first) for obj into one journal
// sector whose backward chain pointer is prev: FitSector, failing unless
// every entry fits.
func EncodeSector(obj types.ObjectID, prev SectorAddr, entries []*Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("journal: sector with no entries: %w", types.ErrInval)
	}
	sec, n := FitSector(obj, prev, entries)
	if n < len(entries) {
		return nil, fmt.Errorf("journal: %d of %d entries fit a sector: %w", n, len(entries), types.ErrTooLarge)
	}
	return sec, nil
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
	r := codec.NewReader("journal", data)
	if r.U32() != sectorMagic2 {
		return 0, 0, nil, false, nil
	}
	obj, prev = types.ObjectID(r.U64()), SectorAddr(r.U64())
	count, sum := r.U16(), r.U32()
	// Each entry decodes in place and every address list of the sector
	// comes out of one slab: a deep chain is thousands of ~250-byte
	// entries, and returning each by value plus two makes per write entry
	// cost more than parsing them.
	entries = make([]Entry, r.Count(uint64(count), minEntrySize, 0))
	var slab []seglog.BlockAddr
	for i := range entries {
		entries[i].decode(&r, &slab)
	}
	if err := r.Err(); err != nil {
		return 0, 0, nil, false, err
	}
	// The checksum covers exactly the bytes the decode consumed;
	// anything beyond is stale residue from a longer prior encoding
	// of this in-place-rewritten sector and is deliberately excluded.
	consumed := len(data) - len(r.Rest())
	c := crc32.Update(0, crc32.IEEETable, data[:22])
	c = crc32.Update(c, crc32.IEEETable, zeroCRC[:])
	c = crc32.Update(c, crc32.IEEETable, data[26:consumed])
	if c != sum {
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
	buf := make([]byte, seglog.BlockSize)
	if err := r.Read(sa.Block(), buf); err != nil {
		return 0, 0, nil, err
	}
	obj, prev, entries, ok, err := DecodeSector(buf[sa.Slot()*SectorSize:][:SectorSize])
	if err != nil {
		return 0, 0, nil, err
	}
	if !ok {
		return 0, 0, nil, fmt.Errorf("journal: empty sector at %d: %w", sa, types.ErrCorrupt)
	}
	return obj, prev, entries, nil
}

// WalkSectors is the one loop that follows a journal chain backward. It
// reads the sector at from through read, hands fn its address, backward
// link and entries (oldest first), and moves to the link, until fn stops
// it or errs, a read fails, the sector at tail has been visited, or the
// link is NilSector (pass NilSector as tail to walk to the chain's end).
// read decides where a sector comes from and whose it must be.
//
// Every walk ends. Versions never rise going back along a chain, and a
// run of sectors at one version (a Flush's merge entries) never holds
// a sector twice; a sector that breaks either rule — a link into a
// reused segment that leads back up the chain — fails the walk with
// ErrCorrupt before fn sees it.
func WalkSectors(read func(sa SectorAddr) (prev SectorAddr, entries []Entry, err error), from, tail SectorAddr, fn func(addr, prev SectorAddr, entries []Entry) (stop bool, err error)) error {
	floor := uint64(math.MaxUint64) // the lowest version walked so far
	var runBuf [8]SectorAddr
	run := runBuf[:0] // the sectors walked since the version last fell
	for addr := from; addr != NilSector; {
		prev, entries, err := read(addr)
		if err != nil {
			return err
		}
		for i := len(entries) - 1; i >= 0; i-- {
			switch v := entries[i].Version; {
			case v > floor:
				return fmt.Errorf("journal: chain revisits versions: sector %d holds v%d, newer than v%d above it: %w", addr, v, floor, types.ErrCorrupt)
			case v < floor:
				floor, run = v, run[:0]
			}
		}
		if slices.Contains(run, addr) {
			return fmt.Errorf("journal: chain revisits sector %d: %w", addr, types.ErrCorrupt)
		}
		run = append(run, addr)
		if stop, err := fn(addr, prev, entries); stop || err != nil {
			return err
		}
		if addr == tail {
			break
		}
		addr = prev
	}
	return nil
}
