// Package seglog implements the LFS-style segment log that underlies the
// S4 drive (OSDI '00, §4.2.1).
//
// Because data in the history pool must never be overwritten, all
// writes — data blocks, inode checkpoints, journal sectors, object-map
// checkpoints, audit blocks — append to a log divided into fixed-size
// segments. A segment is staged in memory and written with one large
// sequential I/O, which is what makes comprehensive versioning cheap:
// old versions simply stay where they are.
//
// On-disk layout (in 4KB blocks):
//
//	block 0                 superblock
//	blocks 1 .. 2*cp        two alternating object-map checkpoint slots
//	blocks 1+2*cp ..        segments: [summary block][payload blocks...]
//
// Each segment's summary block identifies every payload block (kind,
// owning object, key, timestamp, length, and a CRC32 of the block's
// full on-disk contents) and carries a monotonically increasing write
// sequence number; crash recovery replays summaries with sequence
// numbers newer than the last checkpoint. Until the seal, block 0 holds
// an open record — a summary with no entries — so one read tells a
// sealed, an open and a never-written segment apart (newestSummary).
// Every summary of a segment's life also names the segment opened
// before it and the one the allocator promised to open after it, so
// recovery follows the log from the checkpoint (ScanFrom) instead of
// reading block 0 of every segment on the device.
//
// # Verified reads (DESIGN.md §15)
//
// Every device read of a payload block is checked against the checksum
// its segment summary recorded at flush time. A mismatch is first
// retried against the retained flush double-buffer (which holds the
// last sealed segment's complete image); an unrepairable block fails
// the read with a *types.CorruptError and quarantines its segment so
// the allocator never reuses it. Blocks still staged in memory are
// served from the staging buffers and need no verification. There is
// one on-disk format; Open rejects an image stamped with any other.
package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	stdlog "log"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"s4/internal/disk"
	"s4/internal/types"
)

// BlockSize is the log block size; it matches the drive data block size.
const BlockSize = types.BlockSize

const sectorsPerBlock = BlockSize / disk.SectorSize

// allSectors is the dirty mask of a whole block: one bit per sector, so
// a block of sectorsPerBlock (8) sectors fits a uint8.
const allSectors = uint8(1<<sectorsPerBlock - 1)

// sectorMask is the dirty mask covering bytes [from, to) of a block,
// every sector they touch in part included.
func sectorMask(from, to int) uint8 {
	lo, hi := from/disk.SectorSize, (to+disk.SectorSize-1)/disk.SectorSize
	m := 1<<hi - 1<<lo // an int: hi may be sectorsPerBlock
	return uint8(m)
}

// BlockAddr is the absolute block number of a log block on the device.
// NilAddr (0) never addresses a valid payload block because block 0
// holds the superblock.
type BlockAddr uint64

// NilAddr is the null block address.
const NilAddr BlockAddr = 0

// Kind tags what a payload block holds, so recovery and the cleaner can
// interpret segments without consulting higher-level state.
type Kind uint8

// Payload block kinds.
const (
	KindInvalid Kind = iota
	KindData         // object data block
	KindInode        // inode checkpoint
	KindJournal      // packed journal sector
	KindImap         // object-map page (roll-forward aid)
	KindAudit        // audit-log block (drive-owned, unversioned)
	KindDelta        // delta-compressed old version data
	KindPad          // dead slot reserving a partial-flush summary snapshot
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindInode:
		return "inode"
	case KindJournal:
		return "journal"
	case KindImap:
		return "imap"
	case KindAudit:
		return "audit"
	case KindDelta:
		return "delta"
	case KindPad:
		return "pad"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SummaryEntry describes one payload block of a segment.
type SummaryEntry struct {
	Kind Kind
	Obj  types.ObjectID
	// Key is kind-specific: the file block index for data blocks, the
	// version for inode checkpoints, zero otherwise.
	Key  uint64
	Time types.Timestamp
	// Len is the number of meaningful bytes in the block (≤ BlockSize).
	Len uint32
	// Sum is the CRC32 (IEEE) of the block's full BlockSize on-disk
	// contents, computed at flush time. Zero means "no checksum": pad
	// slots (whose on-disk bytes are a retired summary snapshot, not the
	// staged zeros), journal blocks in partial snapshots (rewritten in
	// place, a sector at a time, until the seal — DESIGN.md §11.3; their
	// own per-sector CRCs cover them — see encodeSummaryLocked) and the
	// 1-in-2^32 block whose real CRC is zero all skip verification.
	Sum uint32
}

const summaryEntrySize = 1 + 8 + 8 + 8 + 4 + 4 // kind, obj, key, time, len, block CRC32

// Summary is a decoded segment summary.
type Summary struct {
	Seq     uint64
	Entries []SummaryEntry
}

// Config holds format-time parameters.
type Config struct {
	// SegBlocks is blocks per segment including the summary block.
	SegBlocks int
	// CheckpointBlocks is the size of each of the two checkpoint slots.
	CheckpointBlocks int
}

// DefaultConfig returns the parameters used by the paper-scale drive:
// 256KB segments and 4MB checkpoint slots.
func DefaultConfig() Config {
	return Config{SegBlocks: 64, CheckpointBlocks: 1024}
}

const (
	superMagic   = 0x53344C47 // "S4LG"
	summaryMagic = 0x53344734 // "S4G4" — summary with per-block CRCs, threaded into the log
	cpMagic      = 0x53344350 // "S4CP"
	// formatVer is the only on-disk format: Format stamps it and Open
	// rejects anything else, so no read path admits unchecksummed media
	// (2), no scan meets an open segment without its record (3), no
	// chain walk meets a summary that does not name its neighbours (4),
	// no summary's CRC covers more than its header and entries, the
	// sectors a flush writes of it (5), and no landmark journal entry
	// names a root block: its inode image rides the entry (6).
	formatVer = 6
)

// FormatError refuses an image stamped with another on-disk format
// version. It wraps types.ErrCorrupt: this build would misread what the
// image holds.
type FormatError struct{ Version uint32 }

func (e *FormatError) Error() string {
	return fmt.Sprintf("seglog: format version %d unsupported, this build reads %d", e.Version, formatVer)
}

func (e *FormatError) Unwrap() error { return types.ErrCorrupt }

// noSeg stands for "no segment" in a summary's next and prev fields and
// in a checkpoint's anchor; a log therefore has fewer segments than it.
const noSeg = math.MaxUint32

// anchor is where the roll-forward chain walk starts (DESIGN.md §14.5):
// the segment open at the checkpoint, or the one promised to open next,
// pinned by the segment opened before it and the seq it opened at.
type anchor struct {
	ok     bool   // ReadCheckpoint set it; until then ScanFrom probes every segment
	seq    uint64 // the checkpoint's seq: the afterSeq the walk answers for
	seg    int64  // -1: the checkpoint names none
	prev   int64
	opened uint64
}

// Log is an open segment log. Methods are safe for concurrent use.
type Log struct {
	dev disk.Device
	cfg Config

	segStart  int64 // first block of segment area
	nSegments int64

	mu       sync.Mutex
	seq      uint64   // last issued segment write sequence
	free     []bool   // per-segment free flag
	nFree    int64    // segments the allocator may hand out (allocatable)
	curSeg   int64    // open segment (-1 if none)
	buf      []byte   // staged open segment (SegBlocks * BlockSize); block 0 is its open record
	recDue   bool     // the open record has not reached the device yet
	sumBuf   []byte   // the summary the current flush writes (one block)
	used     int      // payload blocks staged (excluding summary)
	dirty    []uint8  // per payload block: a bit per sector staged but not yet on disk
	nDirty   int      // payload blocks with a non-zero dirty mask
	crcs     []uint32 // per payload block: its checksum, valid while crcOK (encodeSummaryLocked)
	crcOK    []bool   // cleared when the block is staged or rewritten, all cleared when a segment opens
	entries  []SummaryEntry
	cpSlot   int   // next checkpoint slot to write (0 or 1)
	appends  int64 // stats: blocks appended
	segWrite int64 // stats: segment (full or partial) writes
	hashed   int64 // block checksums summaries computed, i.e. crcs misses; tests bound it

	// Threading (DESIGN.md §14.5). Every summary of the open segment
	// carries curPrev, the segment opened before it, curOpened, the seq it
	// opened at, and nextSeg, the successor the allocator reserved when it
	// opened: the next open takes nextSeg, whatever else is free by then.
	// lastSeg is the segment opened last (the open one while curSeg >= 0);
	// -1 means none since Format, or none known after a probe fallback.
	// held is the chain recovery walked: those segments are not handed
	// out again before the next checkpoint moves the anchor past them, so
	// a second crash finds the chain as the first left it. anchor is
	// where the walk starts.
	curPrev   int64
	curOpened uint64
	lastSeg   int64
	nextSeg   int64
	held      map[int64]bool
	anchor    anchor

	ioErr       error // first device-write error; latches the log failed
	vecAppends  int64 // stats: multi-block vectored append batches
	flushStalls int64 // stats: callers that waited out an in-flight flush

	// A flush releases l.mu for its device writes (DESIGN.md §11.3), so
	// appends keep staging while they run. One flush runs at a time:
	// flushing is set meanwhile, and flushCond wakes whoever waits it
	// out. sealSeg names the segment whose seal is in flight (-1 if
	// none); its blocks are read from flushBuf until the writes land.
	flushing  bool
	flushCond *sync.Cond
	sealSeg   int64

	// flushBuf is the other staging buffer: a seal swaps it with buf, so
	// it holds the complete image of flushBufSeg, the segment sealed last
	// (-1 if none), until the next seal swaps them back. The seal writes
	// from it, and afterwards it is the read path's redundant copy for
	// repairing checksum-failed device blocks in place.
	flushBuf    []byte
	flushBufSeg int64

	// sealSink, if set, receives a private copy of every journal block
	// of a segment whose seal just landed (SetSealSink).
	sealSink func(addr BlockAddr, blk []byte)

	// Integrity state (DESIGN.md §15). sums caches each settled segment's
	// checksum table (payload index -> expected CRC and Len): a seal
	// installs its own, and a segment sealed before Open has its table
	// loaded lazily; a present nil entry means "known: no readable
	// summary", so it is not rescanned.
	// sumGen invalidates in-flight loads that raced a segment reuse.
	// quar marks segments with an unrepairable block: the allocator never
	// hands them out again, even after the cleaner frees them.
	sums   map[int64][]blockSum
	sumGen uint64
	quar   map[int64]bool

	// Read-path counters. Atomics, not mu-guarded: Read/ReadRun hit the
	// device after dropping mu and must not re-acquire it just to count.
	devReads int64 // stats: device read I/Os issued (any size)
	vecReads int64 // stats: multi-block coalesced device reads
	// Integrity counters, same discipline.
	corruptDetected int64 // checksum failures surfaced as CorruptError
	corruptRepaired int64 // checksum failures healed from a redundant copy
}

// Format initializes dev with an empty log: it rewrites the superblock,
// invalidates both checkpoint slots, and wipes whatever log the device
// held before. Every segment a log has written has a non-zero block 0 (a
// sealed summary or an open record), and the roll-forward scan decides
// what a segment is from that block alone (newestSummary), so Format reads
// each segment's block 0 and zeroes the segments where it is not zero —
// whole, because a used segment keeps its partial-flush snapshots in its
// pad slots, and the new log numbers its flushes from 1 again: once it
// reopened the segment, a stale snapshot further in would outrank its
// own. A blank device sees one read per segment and no write.
func Format(dev disk.Device, cfg Config) error {
	if cfg.SegBlocks < 8 || cfg.SegBlocks > maxSegBlocks() {
		return fmt.Errorf("seglog: SegBlocks %d out of range: %w", cfg.SegBlocks, types.ErrInval)
	}
	if cfg.CheckpointBlocks < 1 {
		return fmt.Errorf("seglog: CheckpointBlocks must be positive: %w", types.ErrInval)
	}
	totalBlocks := dev.Capacity() / BlockSize
	segStart := int64(1 + 2*cfg.CheckpointBlocks)
	nSeg := (totalBlocks - segStart) / int64(cfg.SegBlocks)
	if nSeg < 4 || nSeg >= noSeg {
		return fmt.Errorf("seglog: device of %d segments out of range: %w", nSeg, types.ErrInval)
	}
	sb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(sb[0:], superMagic)
	binary.LittleEndian.PutUint32(sb[4:], formatVer)
	binary.LittleEndian.PutUint32(sb[8:], uint32(cfg.SegBlocks))
	binary.LittleEndian.PutUint32(sb[12:], uint32(cfg.CheckpointBlocks))
	binary.LittleEndian.PutUint64(sb[16:], uint64(nSeg))
	binary.LittleEndian.PutUint32(sb[28:], crc32.ChecksumIEEE(sb[:28]))
	if err := writeBlocks(dev, 0, sb); err != nil {
		return err
	}
	// Invalidate both checkpoint slots.
	empty := make([]byte, BlockSize)
	for slot := 0; slot < 2; slot++ {
		if err := writeBlocks(dev, 1+int64(slot*cfg.CheckpointBlocks), empty); err != nil {
			return err
		}
	}
	head := make([]byte, BlockSize)
	var zeros []byte
	for seg := int64(0); seg < nSeg; seg++ {
		base := segStart + seg*int64(cfg.SegBlocks)
		if err := readBlocks(dev, base, head); err != nil {
			return fmt.Errorf("seglog: format: segment %d: %w", seg, err)
		}
		if bytes.Equal(head, zeroBlock[:]) {
			continue
		}
		if zeros == nil {
			zeros = make([]byte, cfg.SegBlocks*BlockSize)
		}
		if err := writeBlocks(dev, base, zeros); err != nil {
			return fmt.Errorf("seglog: format: segment %d: %w", seg, err)
		}
	}
	if s, ok := dev.(disk.Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Blank reports whether dev has never been formatted: the first eight
// bytes of its superblock, the magic and the format version, are zero.
// A failed read is an error, never "blank": Format over a used device
// wipes its log, so a caller that cannot read sector 0 must not format.
func Blank(dev disk.Device) (bool, error) {
	buf := make([]byte, disk.SectorSize)
	if err := dev.ReadSectors(0, buf); err != nil {
		return false, fmt.Errorf("seglog: read superblock: %w", err)
	}
	return binary.LittleEndian.Uint64(buf) == 0, nil
}

func maxSegBlocks() int {
	return (BlockSize - summaryHeaderSize) / summaryEntrySize
}

// A summary block, every field little-endian:
//
//	[0:4)   magic
//	[4:12)  seq of the flush that wrote it
//	[12:16) entry count
//	[16:20) CRC32 (IEEE) of the header and entries: [0:16) and [20:summaryLen)
//	[20:24) next: the segment promised to open after this one (noSeg: none was free)
//	[24:28) prev: the segment opened before this one (noSeg: none known)
//	[28:36) opened: the seq this life of the segment opened at
//	[36:)   entries, summaryEntrySize bytes each
//
// The rest of the block is slack: no reader looks at it and the CRC does
// not cover it, so a flush writes a summary's sectors up to summaryLen
// only, and the rest of its slot keeps whatever the slot held before
// (DESIGN.md §15.1).
const summaryHeaderSize = 4 + 8 + 4 + 4 + 4 + 4 + 8

// summaryLen is the bytes a summary of count entries occupies: its
// header and entries, which its CRC covers.
func summaryLen(count int) int { return summaryHeaderSize + count*summaryEntrySize }

// summarySpan is the bytes of a segment's block 0 a summary can occupy:
// the sectors of a seal's summaryLen, five of eight at 64 blocks a
// segment. Every writer of block 0 leaves the sectors past it zero (the
// open record rides a write of the whole block, and a seal writes only
// its summary's sectors over it), so newestSummary reads no further.
func (l *Log) summarySpan() int {
	return (summaryLen(l.PayloadBlocks()) + disk.SectorSize - 1) / disk.SectorSize * disk.SectorSize
}

// Open attaches to a formatted device. It performs no replay; the owner
// (the drive) restores free-map/sequence state from its checkpoint and
// calls ScanFrom to roll forward.
func Open(dev disk.Device) (*Log, error) {
	sb := make([]byte, disk.SectorSize) // the superblock's fields and CRC fill its first 32 bytes
	if err := dev.ReadSectors(0, sb); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sb[0:]) != superMagic {
		return nil, fmt.Errorf("seglog: bad superblock magic: %w", types.ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(sb[28:]) != crc32.ChecksumIEEE(sb[:28]) {
		return nil, fmt.Errorf("seglog: superblock checksum mismatch: %w", types.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(sb[4:]); v != formatVer {
		return nil, &FormatError{Version: v}
	}
	// A CRC is not a MAC: hold the geometry to the ranges Format enforces
	// before anything divides by it or allocates from it.
	segBlocks := binary.LittleEndian.Uint32(sb[8:])
	cpBlocks := binary.LittleEndian.Uint32(sb[12:])
	nSegU := binary.LittleEndian.Uint64(sb[16:])
	totalBlocks := uint64(dev.Capacity() / BlockSize)
	if segBlocks < 8 || segBlocks > uint32(maxSegBlocks()) || cpBlocks < 1 ||
		nSegU < 4 || nSegU >= noSeg || nSegU > totalBlocks || // the last bound keeps the product below from wrapping
		1+2*uint64(cpBlocks)+nSegU*uint64(segBlocks) > totalBlocks {
		return nil, fmt.Errorf("seglog: superblock geometry (%d blocks/segment, %d checkpoint blocks, %d segments) does not fit the %d-block device: %w",
			segBlocks, cpBlocks, nSegU, totalBlocks, types.ErrCorrupt)
	}
	cfg := Config{SegBlocks: int(segBlocks), CheckpointBlocks: int(cpBlocks)}
	nSeg := int64(nSegU)
	l := &Log{
		dev:         dev,
		cfg:         cfg,
		segStart:    int64(1 + 2*cfg.CheckpointBlocks),
		nSegments:   nSeg,
		free:        make([]bool, nSeg),
		curSeg:      -1,
		buf:         make([]byte, cfg.SegBlocks*BlockSize),
		flushBuf:    make([]byte, cfg.SegBlocks*BlockSize),
		sumBuf:      make([]byte, BlockSize),
		flushBufSeg: -1,
		sealSeg:     -1,
		curPrev:     -1,
		lastSeg:     -1,
		nextSeg:     -1,
		anchor:      anchor{seg: -1},
		sums:        make(map[int64][]blockSum),
		quar:        make(map[int64]bool),
	}
	l.flushCond = sync.NewCond(&l.mu)
	for i := range l.free {
		l.free[i] = true
	}
	l.nFree = nSeg
	return l, nil
}

// Config returns the format-time parameters.
func (l *Log) Config() Config { return l.cfg }

// NumSegments returns the number of segments on the device.
func (l *Log) NumSegments() int64 { return l.nSegments }

// PayloadBlocks returns the payload capacity of one segment, in blocks.
func (l *Log) PayloadBlocks() int { return l.cfg.SegBlocks - 1 }

// FreeSegments returns how many segments are currently free.
func (l *Log) FreeSegments() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nFree
}

// Seq returns the last issued segment write sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats reports append and segment-write counts.
func (l *Log) Stats() (appends, segWrites int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.segWrite
}

// PipeStats reports commit-pipeline counters: multi-block vectored
// append batches, and callers (syncs, sealing appends, rewrites,
// summary readers) that had to wait out an in-flight flush's device
// writes.
func (l *Log) PipeStats() (vecAppends, flushStalls int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.vecAppends, l.flushStalls
}

// ReadStats reports read-path counters: device read I/Os issued (staged
// blocks served from memory are not counted) and how many of those were
// multi-block coalesced reads.
func (l *Log) ReadStats() (devReads, vecReads int64) {
	return atomic.LoadInt64(&l.devReads), atomic.LoadInt64(&l.vecReads)
}

// SegOf returns the segment index containing addr, or -1 if addr is
// outside the segment area.
func (l *Log) SegOf(addr BlockAddr) int64 {
	b := int64(addr)
	if b < l.segStart {
		return -1
	}
	seg := (b - l.segStart) / int64(l.cfg.SegBlocks)
	if seg >= l.nSegments {
		return -1
	}
	return seg
}

func (l *Log) segBase(seg int64) int64 { return l.segStart + seg*int64(l.cfg.SegBlocks) }

// Append stages one payload block and returns its final disk address:
// a one-entry AppendVec. len(data) must be in (0, BlockSize]. The block
// becomes durable at the next Sync or when the segment fills.
func (l *Log) Append(kind Kind, obj types.ObjectID, key uint64, t types.Timestamp, data []byte) (BlockAddr, error) {
	var addr [1]BlockAddr
	if _, err := l.appendVec(kind, obj, []VecEntry{{Key: key, Time: t, Data: data}}, addr[:0]); err != nil {
		return NilAddr, err
	}
	return addr[0], nil
}

// VecEntry is one block of a vectored append: the kind-specific key,
// the version timestamp, and up to BlockSize bytes of payload.
type VecEntry struct {
	Key  uint64
	Time types.Timestamp
	Data []byte
}

// AppendVec stages every entry — all for the same object and kind —
// under a single mutex acquisition and returns their final addresses in
// order. The blocks fill the open segment contiguously, so a later
// flush covers the whole batch with one sequential device write;
// batches larger than the remaining room seal the segment and continue
// into fresh ones. Callers that write several blocks per operation
// (multi-block Drive.Write, checkpoint overflow chains, the cleaner's
// relocation pass) use it to pay the lock and the flush machinery once
// per batch instead of once per block.
func (l *Log) AppendVec(kind Kind, obj types.ObjectID, entries ...VecEntry) ([]BlockAddr, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	return l.appendVec(kind, obj, entries, make([]BlockAddr, 0, len(entries)))
}

// appendVec is AppendVec into addrs, which has room for every entry.
func (l *Log) appendVec(kind Kind, obj types.ObjectID, entries []VecEntry, addrs []BlockAddr) ([]BlockAddr, error) {
	for i := range entries {
		if len(entries[i].Data) == 0 || len(entries[i].Data) > BlockSize {
			return nil, fmt.Errorf("seglog: append of %d bytes: %w", len(entries[i].Data), types.ErrInval)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ioErr != nil {
		return nil, l.ioErr
	}
	if len(entries) > 1 {
		l.vecAppends++
	}
	for _, e := range entries {
		addr, err := l.appendOneLocked(kind, obj, e.Key, e.Time, e.Data)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	if l.used >= l.PayloadBlocks() {
		if err := l.flushLocked(true); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// appendOneLocked stages one payload block into the open segment,
// sealing a full segment and opening a fresh one as needed. Caller
// holds l.mu and has checked the error latch.
func (l *Log) appendOneLocked(kind Kind, obj types.ObjectID, key uint64, t types.Timestamp, data []byte) (BlockAddr, error) {
	for l.curSeg >= 0 && l.used >= l.PayloadBlocks() {
		// A partial-flush pad can leave the segment full without an
		// append having sealed it; seal now so this block starts fresh.
		// Loop rather than if: flushLocked may wait out an in-flight
		// flush with the mutex released, and by the time it returns a
		// concurrent appender can have opened — and filled — a new
		// segment.
		if err := l.flushLocked(true); err != nil {
			return NilAddr, err
		}
	}
	if l.curSeg < 0 {
		if err := l.openSegmentLocked(); err != nil {
			return NilAddr, err
		}
	}
	idx := 1 + l.used // block index within the segment (0 is summary)
	off := idx * BlockSize
	copy(l.buf[off:off+BlockSize], data)
	clear(l.buf[off+len(data) : off+BlockSize])
	l.entries = append(l.entries, SummaryEntry{Kind: kind, Obj: obj, Key: key, Time: t, Len: uint32(len(data))})
	addr := BlockAddr(l.segBase(l.curSeg) + int64(idx))
	l.crcOK[idx-1] = false
	l.dirty[idx-1] = allSectors
	l.nDirty++
	l.used++
	l.appends++
	return addr, nil
}

// InOpenSegment reports whether addr is a payload block of the still
// open (rewritable) segment.
func (l *Log) InOpenSegment(addr BlockAddr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	seg := l.SegOf(addr)
	if seg < 0 || seg != l.curSeg {
		return false
	}
	idx := int(int64(addr) - l.segBase(seg))
	return idx >= 1 && idx <= l.used
}

// RewriteRange replaces bytes [off, off+len(data)) of a payload block
// if — and only if — the block is still in the open segment, reporting
// ok=false with no error when it is not (sealed, or never staged). The
// drive's journal layer uses it to pack another 512-byte sector into a
// shared journal block (§4.2.2): the openness test and the write happen
// under one mutex hold, so a concurrent appender sealing the segment
// between the two can never turn the merge into an overwrite of durable
// history — the caller just places a fresh sector instead. Only the
// sectors the range touches are marked dirty, so the next flush writes
// those and not the whole block (DESIGN.md §11.3). A partial flush in
// flight writes straight from the staging buffer, so the rewrite waits
// for it to land.
func (l *Log) RewriteRange(addr BlockAddr, off int, data []byte) (bool, error) {
	if off < 0 || len(data) == 0 || off+len(data) > BlockSize {
		return false, fmt.Errorf("seglog: rewrite-range of %d bytes at %d: %w", len(data), off, types.ErrInval)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing && l.sealSeg < 0 {
		l.flushStalls++
		l.flushCond.Wait()
	}
	if l.ioErr != nil {
		return false, l.ioErr
	}
	seg := l.SegOf(addr)
	if seg < 0 || seg != l.curSeg {
		return false, nil
	}
	idx := int(int64(addr) - l.segBase(seg))
	if idx < 1 || idx > l.used {
		return false, nil
	}
	bo := idx*BlockSize + off
	copy(l.buf[bo:bo+len(data)], data)
	if end := uint32(off + len(data)); l.entries[idx-1].Len < end {
		l.entries[idx-1].Len = end
	}
	l.crcOK[idx-1] = false
	if l.dirty[idx-1] == 0 {
		l.nDirty++
	}
	l.dirty[idx-1] |= sectorMask(off, off+len(data))
	return true, nil
}

// PatchSettled overwrites bytes [off, off+len(data)) of the settled
// payload block at addr directly on the device, bypassing staging. It
// exists for exactly one caller: crash recovery truncating an
// un-durable journal tail out of a replayed sector (an in-place head
// rewrite can land before the data blocks its appended entries
// reference, and the rejected suffix must be erased so post-recovery
// writes cannot collide with its versions). The patch must be
// sector-aligned and stay inside one block, and the block's durable
// summary must not pin a checksum over it — journal blocks under a
// partial snapshot carry the zero skip-sentinel, which is what makes
// the patch legal; a pinned sum is refused rather than silently turned
// into manufactured corruption.
func (l *Log) PatchSettled(addr BlockAddr, off int, data []byte) error {
	if off < 0 || len(data) == 0 || off%disk.SectorSize != 0 ||
		len(data)%disk.SectorSize != 0 || off+len(data) > BlockSize {
		return fmt.Errorf("seglog: patch of %d bytes at %d: %w", len(data), off, types.ErrInval)
	}
	seg := l.SegOf(addr)
	if seg < 0 {
		return fmt.Errorf("seglog: patch outside segment area: %w", types.ErrInval)
	}
	idx := int(int64(addr) - l.segBase(seg))
	if idx < 1 || idx >= l.cfg.SegBlocks {
		return fmt.Errorf("seglog: patch of non-payload block %d: %w", addr, types.ErrInval)
	}
	l.mu.Lock()
	cur, ioErr := l.curSeg, l.ioErr
	l.mu.Unlock()
	if ioErr != nil {
		return ioErr
	}
	if seg == cur {
		return fmt.Errorf("seglog: patch of open segment %d: %w", seg, types.ErrInval)
	}
	sums, err := l.sumsFor(seg)
	if err != nil {
		return err
	}
	if idx-1 < len(sums) && sums[idx-1].sum != 0 {
		return fmt.Errorf("seglog: patch of checksummed block %v: %w", addr, types.ErrInval)
	}
	return l.dev.WriteSectors(int64(addr)*sectorsPerBlock+int64(off/disk.SectorSize), data)
}

// Room returns how many payload blocks remain in the open segment; the
// drive uses it to co-locate an object's journal sector with its data.
func (l *Log) Room() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.curSeg < 0 {
		return l.PayloadBlocks()
	}
	return l.PayloadBlocks() - l.used
}

// openSegmentLocked opens the successor the previous open promised, or,
// with no promise outstanding, the lowest-numbered allocatable segment,
// and promises the lowest allocatable one left as its own successor
// (recountLocked moves the promise while the segment is open). The
// promise is kept even if the cleaner has freed a lower segment since
// the previous segment sealed: its seal names the promised one, and the
// chain walk would take any other segment for the end of the log. It
// touches no device: block 0 of the staging buffer becomes the open
// record, which rides the segment's first payload write (flushLocked),
// so a sealed summary left in block 0 by the segment's previous life is
// gone before any snapshot of this one is durable.
func (l *Log) openSegmentLocked() error {
	seg := l.nextSeg
	if seg < 0 {
		if seg = l.lowestAllocatableLocked(); seg < 0 {
			return types.ErrNoSpace
		}
	} else if !l.free[seg] {
		// Marked allocated since it was promised. Opening anything else
		// would end the chain short of it, so there is no room until the
		// promised segment is freed again.
		return fmt.Errorf("seglog: promised successor %d is in use: %w", seg, types.ErrNoSpace)
	}
	was := l.allocatable(seg)
	l.free[seg] = false
	l.recountLocked(seg, was)
	l.curPrev, l.curOpened, l.lastSeg = l.lastSeg, l.seq, seg
	l.nextSeg = l.lowestAllocatableLocked() // -1: none free, the chain cannot name what follows
	l.curSeg = seg
	l.used = 0
	// The segment's previous life is over; its cached checksum
	// table (and any load racing this reuse) must not survive.
	delete(l.sums, seg)
	l.sumGen++
	if l.dirty == nil {
		l.dirty = make([]uint8, l.cfg.SegBlocks)
		l.crcs = make([]uint32, l.cfg.SegBlocks)
		l.crcOK = make([]bool, l.cfg.SegBlocks)
	}
	clear(l.dirty)
	clear(l.crcOK)
	l.nDirty = 0
	l.entries = l.entries[:0]
	clear(l.buf)
	l.encodeSummaryLocked(l.buf[:BlockSize], l.seq, false) // no entries: "opened at seq"
	l.recDue = true
	return nil
}

// allocatable reports whether the allocator may hand seg out: free, not
// quarantined, and not held for the chain. nFree counts exactly these.
// Caller holds l.mu.
func (l *Log) allocatable(seg int64) bool {
	return l.free[seg] && !l.quar[seg] && !l.held[seg]
}

// recountLocked adjusts nFree after a change to seg's allocator state;
// was is what allocatable(seg) said before it. While a segment is open
// its successor is only promised — no seal names it yet, and the open
// segment's later summaries and its seal carry whatever nextSeg is when
// they are encoded — so the promise moves to the lowest allocatable
// segment, as the next open would have chosen it. Caller holds l.mu.
func (l *Log) recountLocked(seg int64, was bool) {
	now := l.allocatable(seg)
	switch {
	case now && !was:
		l.nFree++
	case was && !now:
		l.nFree--
	}
	if now != was && l.curSeg >= 0 {
		l.nextSeg = l.lowestAllocatableLocked()
	}
}

// lowestAllocatableLocked returns the lowest allocatable segment, or -1.
func (l *Log) lowestAllocatableLocked() int64 {
	for seg := int64(0); l.nFree > 0 && seg < l.nSegments; seg++ {
		if l.allocatable(seg) {
			return seg
		}
	}
	return -1
}

// holdLocked replaces the held set with chain (nil releases it).
func (l *Log) holdLocked(chain []int64) {
	for seg := range l.held {
		delete(l.held, seg)
		l.recountLocked(seg, false)
	}
	for _, seg := range chain {
		if l.held == nil {
			l.held = make(map[int64]bool)
		}
		was := l.allocatable(seg)
		l.held[seg] = true
		l.recountLocked(seg, was)
	}
}

// Sync makes all staged blocks durable. A partially filled segment is
// written out (summary plus the unwritten payload tail) and remains open
// for further appends, mirroring LFS partial-segment writes.
func (l *Log) Sync() error {
	l.mu.Lock()
	// Wait for an in-flight flush even when nothing is dirty now: Sync
	// promises that everything staged before the call is durable on
	// return, and blocks covered by that flush are not until it lands.
	for l.flushing {
		l.flushStalls++
		l.flushCond.Wait()
	}
	if l.ioErr != nil {
		l.mu.Unlock()
		return l.ioErr
	}
	var err error
	if l.curSeg >= 0 && l.nDirty > 0 {
		err = l.flushLocked(false)
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	// Force OS-buffered writes to stable media even when this call found
	// nothing dirty: a seal triggered by a filling append writes blocks
	// without a barrier, and Sync's durability promise covers those too.
	return l.forceDev()
}

// forceDev pushes buffered device writes to stable media on backends
// that buffer them (the real-file backend exposes disk.Syncer). The
// virtual-clock simulated disk writes through, so this is a no-op
// there. A barrier failure latches the log failed like any device
// write error.
func (l *Log) forceDev() error {
	s, ok := l.dev.(disk.Syncer)
	if !ok {
		return nil
	}
	if err := s.Sync(); err != nil {
		l.mu.Lock()
		if l.ioErr == nil {
			l.ioErr = err
		}
		l.mu.Unlock()
		return err
	}
	return nil
}

// flushLocked makes the staged segment durable.
//
// Partial flush (closeSeg false): the dirty payload runs are written,
// one device write per run of consecutive dirty blocks, trimmed to the
// sectors that changed: a run starts at the lowest dirty sector of its
// first block and ends after the highest dirty sector of its last
// (DESIGN.md §11.3). A sector left out already holds its staged bytes —
// an earlier flush of this life of the segment wrote it, and any later
// rewrite of it would have marked it dirty — so the device image after
// the flush is the one writing the whole blocks would leave. Then a
// snapshot of the summary is appended in the slot right after
// the last used block — the LFS partial-segment pattern, one
// mostly-sequential write per sync, no seek back to the segment head.
// The snapshot's slot is then retired with a pad entry, so no later
// append can overwrite the only durable summary before its replacement
// lands; recovery finds the newest valid snapshot by scanning
// (newestSummary). The snapshot write covers only the sectors its header
// and entries occupy (summaryLen), one to five of the slot's eight at 64
// blocks a segment: a tear inside it leaves a new header over stale
// entries, which fails the CRC. A crash anywhere inside the flush leaves
// the previous snapshot intact and loses only unacknowledged work.
//
// Seal (closeSeg true): the payload is written first, then the final
// summary lands in block 0, over the open record, where steady-state
// reads expect it. It too is written as its header and entries only:
// the segment's first run wrote block 0 whole, the record and zeros, so
// the sectors past summaryLen already hold what a whole-block seal would
// write. A summary never declares blocks that are not already
// durable, so a crash mid-seal falls back to the newest partial
// snapshot. A segment's first flush, of either kind, starts its run at
// block 0, not 1: the open record costs no write of its own.
//
// The device writes happen with l.mu RELEASED, so appends keep staging
// while they run. Their source stays put meanwhile: a seal swaps the
// buffers whole and writes from flushBuf, which the next seal cannot
// swap back before this flush ends; a partial flush writes its runs
// straight from buf, below every slot an append can fill, and
// RewriteRange waits for it. Only one flush runs at a time; a second
// caller waits on flushCond and re-derives what is left to do. A
// device-write error latches ioErr, failing every later append and sync
// — dirty state is cleared optimistically before the writes, so the
// latch is what keeps a failed flush from being silently dropped.
// Caller holds l.mu; it is released and re-acquired internally.
func (l *Log) flushLocked(closeSeg bool) error {
	for l.flushing {
		l.flushStalls++
		l.flushCond.Wait()
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	// The wait released the mutex, so a concurrent flush may have
	// sealed the segment or drained the dirty set; re-derive the work.
	if l.curSeg < 0 {
		return nil
	}
	if l.used >= l.PayloadBlocks() {
		closeSeg = true // no slot left for a snapshot; seal instead
	} else if closeSeg {
		return nil // the full segment this call meant to seal is gone
	}
	if !closeSeg && l.nDirty == 0 {
		return nil
	}
	l.seq++
	l.encodeSummaryLocked(l.sumBuf, l.seq, closeSeg)
	sumEnd := (summaryLen(len(l.entries)) + disk.SectorSize - 1) / disk.SectorSize * disk.SectorSize
	seg := l.curSeg
	base := l.segBase(seg)
	used := l.used
	var runs [][2]int // dirty payload runs as [from, to) sectors of the segment
	for i := 0; i < used; {
		if l.dirty[i] == 0 {
			i++
			continue
		}
		j := i
		for j < used && l.dirty[j] != 0 {
			j++
		}
		from := (1+i)*sectorsPerBlock + bits.TrailingZeros8(l.dirty[i])
		to := (1+j)*sectorsPerBlock - bits.LeadingZeros8(l.dirty[j-1])
		runs = append(runs, [2]int{from, to})
		clear(l.dirty[i:j])
		i = j
	}
	l.nDirty = 0
	if l.recDue { // first flush of this life: all staged blocks were dirty, one run from block 1
		runs[0][0], l.recDue = 0, false
	}
	src := l.buf
	at := base // the summary's block: block 0 for a seal, else the trailing slot
	// A seal's journal blocks, for the sink, taken now: a concurrent
	// append reuses l.entries once the mutex is released.
	var jblocks []int
	if closeSeg {
		if l.sealSink != nil {
			for i, e := range l.entries {
				if e.Kind == KindJournal {
					jblocks = append(jblocks, 1+i)
				}
			}
		}
		// Seal: retire the segment and swap the staging buffers, so
		// flushBuf keeps its complete image as the repair copy and the
		// next append opens a fresh segment in the other buffer.
		l.buf, l.flushBuf = l.flushBuf, l.buf
		l.curSeg = -1
		l.flushBufSeg, l.sealSeg = seg, seg
	} else {
		// Partial flush: the segment stays open for appends. Retire the
		// snapshot's slot with a pad entry BEFORE the mutex is released,
		// so no concurrent append can land on the only durable summary.
		at = base + int64(1+used)
		l.entries = append(l.entries, SummaryEntry{Kind: KindPad})
		l.used++
	}
	l.flushing = true
	l.segWrite++

	l.mu.Unlock()
	var werr error
	for _, r := range runs {
		if werr = l.dev.WriteSectors(base*sectorsPerBlock+int64(r[0]), src[r[0]*disk.SectorSize:r[1]*disk.SectorSize]); werr != nil {
			break
		}
	}
	if werr == nil {
		// The summary, its header and entries only, usually contiguous
		// with the tail run just written, so the disk model charges no seek.
		werr = l.dev.WriteSectors(at*sectorsPerBlock, l.sumBuf[:sumEnd])
	}
	l.mu.Lock()

	if werr == nil && closeSeg {
		l.sealedLocked(seg, jblocks)
	}
	l.flushing, l.sealSeg = false, -1
	if werr != nil && l.ioErr == nil {
		l.ioErr = werr
	}
	l.flushCond.Broadcast()
	return werr
}

// sealedLocked hands on what a seal of seg, whose device writes all
// landed, leaves in memory, so that nothing reads it back: the checksum
// table of the summary in sumBuf, which verified reads would otherwise
// load from block 0, and a copy of each journal block of the sealed
// image in flushBuf (payload indexes jblocks) for the sink. The copies
// are the bytes the table's checksums were computed over and the device
// now holds, and the seal pins every journal block's checksum, so no
// rewrite can make either stale before the segment is freed. A load of
// the table racing the seal is discarded (sumGen). It runs before
// flushing clears, so no later seal can have swapped flushBuf or reused
// sumBuf. Caller holds l.mu.
func (l *Log) sealedLocked(seg int64, jblocks []int) {
	l.sums[seg] = sumTable(l.sumBuf, sumHeader{count: int(binary.LittleEndian.Uint32(l.sumBuf[12:]))})
	l.sumGen++
	base := l.segBase(seg)
	for _, i := range jblocks {
		l.sealSink(BlockAddr(base+int64(i)), bytes.Clone(l.flushBuf[i*BlockSize:(i+1)*BlockSize]))
	}
}

// SetSealSink registers fn to receive, once a segment's seal has landed
// on the device, a private copy of each of its journal blocks at its
// address: the drive fills its block cache with them. fn is called with
// the log's mutex held, from inside whichever Append, AppendVec or Sync
// sealed the segment, so it must not call back into the log and must
// take no lock that a caller of those may hold. Set it before the log
// is shared.
func (l *Log) SetSealSink(fn func(addr BlockAddr, blk []byte)) {
	l.mu.Lock()
	l.sealSink = fn
	l.mu.Unlock()
}

// encodeSummaryLocked serializes the staged entries into sb, one block.
// Block checksums are computed here — at flush time, over each block's
// full staged contents — rather than at append time, so RewriteRange
// mutations of open-segment blocks are covered by whatever summary next
// reaches the device alongside them. Each sum is computed once and
// cached per slot until the block's bytes change (crcOK), so a partial
// snapshot hashes only what was staged or rewritten since the previous
// one, not the whole segment fill. Pad slots get Sum zero: their
// on-disk bytes are a retired snapshot, not the staged zeros.
//
// Journal blocks are checksummed only in the SEAL summary (sealed
// true). While the segment is open they are rewritten in place on
// every sync to pack more 512-byte entries, and the rewrite and the
// snapshot carrying its checksum are separate device writes: a crash
// between the two would leave the newest durable snapshot describing
// the block's previous contents, and recovery's verified chain walk
// would refuse a perfectly good image. Partial snapshots therefore
// leave journal sums zero — the journal's own per-sector CRCs police
// torn and stale content there, exactly as before checksums — and the
// seal, after which no rewrite can ever touch the segment, pins the
// final bytes. Every summary of the segment's life names the same
// predecessor and opening seq, and the successor promised when it is
// encoded: the promise may move until the seal (recountLocked). Caller
// holds l.mu.
func (l *Log) encodeSummaryLocked(sb []byte, seq uint64, sealed bool) {
	clear(sb)
	binary.LittleEndian.PutUint32(sb[0:], summaryMagic)
	binary.LittleEndian.PutUint64(sb[4:], seq)
	binary.LittleEndian.PutUint32(sb[12:], uint32(len(l.entries)))
	binary.LittleEndian.PutUint32(sb[20:], segWord(l.nextSeg))
	binary.LittleEndian.PutUint32(sb[24:], segWord(l.curPrev))
	binary.LittleEndian.PutUint64(sb[28:], l.curOpened)
	off := summaryHeaderSize
	for i, e := range l.entries {
		sb[off] = byte(e.Kind)
		binary.LittleEndian.PutUint64(sb[off+1:], uint64(e.Obj))
		binary.LittleEndian.PutUint64(sb[off+9:], e.Key)
		binary.LittleEndian.PutUint64(sb[off+17:], uint64(e.Time))
		binary.LittleEndian.PutUint32(sb[off+25:], e.Len)
		var sum uint32
		if e.Kind != KindPad && (sealed || e.Kind != KindJournal) {
			if !l.crcOK[i] {
				bo := (1 + i) * BlockSize
				l.crcs[i], l.crcOK[i] = crc32.ChecksumIEEE(l.buf[bo:bo+BlockSize]), true
				l.hashed++
			}
			sum = l.crcs[i]
		}
		binary.LittleEndian.PutUint32(sb[off+29:], sum)
		off += summaryEntrySize
	}
	binary.LittleEndian.PutUint32(sb[16:], summaryCRC(sb))
}

// summaryCRC is the checksum of a summary block: its header but the four
// bytes that hold the CRC, and its entries. The caller has bounded the
// entry count at [12:16) by the block.
func summaryCRC(sb []byte) uint32 {
	n := summaryLen(int(binary.LittleEndian.Uint32(sb[12:])))
	return crc32.Update(crc32.ChecksumIEEE(sb[:16]), crc32.IEEETable, sb[20:n])
}

// segWord encodes a segment number for a summary or checkpoint field.
func segWord(seg int64) uint32 {
	if seg < 0 {
		return noSeg
	}
	return uint32(seg)
}

// segOfWord decodes segWord; the caller bounds the result.
func segOfWord(w uint32) int64 {
	if w == noSeg {
		return -1
	}
	return int64(w)
}

// Read fills buf (length ≤ BlockSize) with the contents of the block at
// addr: a one-block ReadRun.
func (l *Log) Read(addr BlockAddr, buf []byte) error {
	if len(buf) > BlockSize {
		return fmt.Errorf("seglog: read of %d bytes: %w", len(buf), types.ErrInval)
	}
	if len(buf) == BlockSize {
		return l.ReadRun(addr, 1, buf)
	}
	full := make([]byte, BlockSize)
	if err := l.ReadRun(addr, 1, full); err != nil {
		return err
	}
	copy(buf, full)
	return nil
}

// ReadRun fills buf with n consecutive blocks starting at addr — the
// read-path mirror of AppendVec. The run must lie inside one segment's
// payload area and len(buf) must be at least n*BlockSize. A run staged
// in the open segment, or in one whose seal is still being written, is
// served from memory; any other is fetched with a single device I/O and
// verified. That I/O ends at the last block's Len, rounded up to a
// sector, when its checksum vouches for the zeros past it (ReadSize);
// the rest of the block is filled with zeros, the bytes the flush wrote
// there. A run that starts inside the open segment's staged fill and
// ends past it names blocks never appended, and is refused.
func (l *Log) ReadRun(addr BlockAddr, n int, buf []byte) error {
	if n <= 0 {
		return fmt.Errorf("seglog: read run of %d blocks: %w", n, types.ErrInval)
	}
	if len(buf) < n*BlockSize {
		return fmt.Errorf("seglog: read run buffer %d < %d: %w", len(buf), n*BlockSize, types.ErrInval)
	}
	seg := l.SegOf(addr)
	if seg < 0 || l.SegOf(addr+BlockAddr(n-1)) != seg {
		return fmt.Errorf("seglog: read run %d+%d spans segments: %w", addr, n, types.ErrInval)
	}
	idx := int(int64(addr) - l.segBase(seg))
	if idx == 0 {
		return fmt.Errorf("seglog: address %d is a summary block: %w", addr, types.ErrInval)
	}
	last := idx + n - 1
	l.mu.Lock()
	if seg == l.curSeg && idx <= l.used {
		used := l.used
		if last > used {
			l.mu.Unlock()
			return fmt.Errorf("seglog: read run %d+%d ends past the %d staged blocks: %w", addr, n, used, types.ErrInval)
		}
		copy(buf, l.buf[idx*BlockSize:(last+1)*BlockSize])
		l.mu.Unlock()
		return nil
	}
	if seg == l.sealSeg {
		copy(buf, l.flushBuf[idx*BlockSize:(last+1)*BlockSize])
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	sums, err := l.sumsFor(seg)
	if err != nil {
		return err // "the device would not say" is not "no checksum"
	}
	atomic.AddInt64(&l.devReads, 1)
	if n > 1 {
		atomic.AddInt64(&l.vecReads, 1)
	}
	end := n * BlockSize
	if e := last - 1; e < len(sums) {
		end += sums[e].bound() - BlockSize
	}
	if err := readBlocks(l.dev, int64(addr), buf[:end]); err != nil {
		return err
	}
	clear(buf[end : n*BlockSize])
	return l.verifyRead(sums, seg, idx, n, addr, buf[:n*BlockSize])
}

// ReadSize is how many bytes of its block a verified read fetches when
// the block ends a run: its Len rounded up to a sector when a Sum pins
// the block, since the flush staged zeros past Len and the Sum covers
// them; the whole block for a pad or a journal block of a partial
// snapshot (rewritten in place past the Len its snapshot recorded,
// DESIGN.md §11.3), whose Sum is zero. A slot no summary covers, or a
// segment without one, is read whole too.
func (e SummaryEntry) ReadSize() int { return blockSum{e.Sum, e.Len}.bound() }

func (b blockSum) bound() int {
	if b.sum == 0 || b.len == 0 || b.len > BlockSize {
		return BlockSize
	}
	return (int(b.len) + disk.SectorSize - 1) / disk.SectorSize * disk.SectorSize
}

// verifyRead checks n freshly device-read blocks (starting at payload
// index idx of seg, data holding full blocks) against sums, the
// segment's checksum table. A mismatched block is first retried against
// the retained flush buffer (repairBlock); an unrepairable one
// quarantines the segment and fails the read with a typed CorruptError.
// Segments without a table — the open segment, or no summary on the
// device — pass unverified.
func (l *Log) verifyRead(sums []blockSum, seg int64, idx, n int, addr BlockAddr, data []byte) error {
	for i := 0; i < n; i++ {
		e := idx - 1 + i
		if e >= len(sums) {
			// Beyond the durable summary's coverage (a tail whose summary
			// write a crash lost). Recovery truncates journal entries
			// that reference uncovered blocks, so chains never hand
			// these out — the skip is for raw scans only.
			continue
		}
		want := sums[e].sum
		if want == 0 {
			continue
		}
		blk := data[i*BlockSize : (i+1)*BlockSize]
		got := crc32.ChecksumIEEE(blk)
		if got == want {
			continue
		}
		if l.repairBlock(seg, idx+i, want, blk) {
			atomic.AddInt64(&l.corruptRepaired, 1)
			continue
		}
		atomic.AddInt64(&l.corruptDetected, 1)
		l.mu.Lock()
		l.quarantineLocked(seg)
		l.mu.Unlock()
		return &types.CorruptError{Segment: seg, Block: uint64(addr) + uint64(i), Want: want, Got: got}
	}
	return nil
}

// sumsFor returns seg's checksum table (payload index -> expected CRC and Len):
// the one its seal installed (sealedLocked), or, for a segment sealed
// before Open, lazily loaded from the segment's durable summary or from
// the summary the roll-forward scan already read (cacheSums). nil means no
// verification is possible: the open segment, or no summary at all.
// Negative results are cached too, so such a segment does not pay a
// summary scan per read; a device error is returned and not cached.
func (l *Log) sumsFor(seg int64) ([]blockSum, error) {
	l.mu.Lock()
	if seg == l.curSeg {
		l.mu.Unlock()
		return nil, nil
	}
	if s, ok := l.sums[seg]; ok {
		l.mu.Unlock()
		return s, nil
	}
	gen := l.sumGen
	l.mu.Unlock()
	b := scanBufs.Get().(*scanBuf)
	defer scanBufs.Put(b)
	sb, h, _, err := l.newestSummary(seg, b)
	if err != nil {
		return nil, err
	}
	table := sumTable(sb, h)
	l.mu.Lock()
	if l.sumGen == gen && seg != l.curSeg {
		l.sums[seg] = table
	}
	l.mu.Unlock()
	return table, nil
}

// cacheSums installs the checksum table of a settled segment whose newest
// summary the caller holds (sb, h; sb nil: none), so that the first
// verified read there does not read the summary a second time.
func (l *Log) cacheSums(seg int64, sb []byte, h sumHeader) {
	table := sumTable(sb, h)
	l.mu.Lock()
	if seg != l.curSeg {
		l.sums[seg] = table
	}
	l.mu.Unlock()
}

// blockSum is one row of a checksum table: the Sum and the Len a summary
// entry records for its payload block.
type blockSum struct{ sum, len uint32 }

// sumTable returns the Sum and Len columns of a summary block, decoding
// nothing else; nil for no summary or an open record.
func sumTable(sb []byte, h sumHeader) []blockSum {
	if sb == nil || h.count == 0 {
		return nil
	}
	table := make([]blockSum, h.count)
	for i := range table {
		e := sb[summaryHeaderSize+i*summaryEntrySize:]
		table[i] = blockSum{sum: binary.LittleEndian.Uint32(e[29:]), len: binary.LittleEndian.Uint32(e[25:])}
	}
	return table
}

// repairBlock retries a checksum-failed device block against the
// retained flush double-buffer: after a seal, flushBuf keeps the sealed
// segment's complete image until the next seal swaps it back. On a match
// the verified bytes replace blk and are rewritten to the device in
// place — byte-identical to what the summary describes, so the
// never-overwrite-history rule is untouched — which clears latent
// media rot. The rewrite is best effort: if it fails, the read still
// returns the verified copy and the scrubber will find the rot again.
func (l *Log) repairBlock(seg int64, idx int, want uint32, blk []byte) bool {
	l.mu.Lock()
	if l.flushBufSeg != seg {
		l.mu.Unlock()
		return false
	}
	copy(blk, l.flushBuf[idx*BlockSize:(idx+1)*BlockSize])
	l.mu.Unlock()
	if crc32.ChecksumIEEE(blk) != want {
		return false
	}
	_ = writeBlocks(l.dev, l.segBase(seg)+int64(idx), blk)
	return true
}

// quarantineLocked marks seg unrecyclable: the allocator will never
// open it again, even after the cleaner copies its live blocks out and
// frees it. Quarantine is advisory, in-memory state — it restricts
// only future allocation, so losing it at a crash costs nothing but a
// rediscovery. Caller holds l.mu.
func (l *Log) quarantineLocked(seg int64) {
	was := l.allocatable(seg)
	l.quar[seg] = true
	l.recountLocked(seg, was)
}

// IsQuarantined reports whether seg has been quarantined this run.
func (l *Log) IsQuarantined(seg int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quar[seg]
}

// IntegrityStats reports verified-read counters: checksum failures
// surfaced to callers, failures healed in place from a redundant copy,
// and segments currently quarantined.
func (l *Log) IntegrityStats() (detected, repaired, quarantined int64) {
	l.mu.Lock()
	q := int64(len(l.quar))
	l.mu.Unlock()
	return atomic.LoadInt64(&l.corruptDetected), atomic.LoadInt64(&l.corruptRepaired), q
}

// VerifySegment re-reads every summary-described payload block of a
// settled segment through the verified read path, counting (not
// aborting on) corrupt blocks — the scrubber's unit of work. Free and
// open segments report zero work; pad slots are skipped. checked is
// the number of blocks scanned including corrupt ones; err reports
// device failures only, never corruption.
func (l *Log) VerifySegment(seg int64) (checked, corrupt int, err error) {
	if seg < 0 || seg >= l.nSegments {
		return 0, 0, fmt.Errorf("seglog: segment %d out of range: %w", seg, types.ErrInval)
	}
	l.mu.Lock()
	skip := l.free[seg] || seg == l.curSeg || seg == l.sealSeg
	l.mu.Unlock()
	if skip {
		return 0, 0, nil
	}
	sum, ok, err := l.ReadSummary(seg)
	if err != nil || !ok {
		return 0, 0, err
	}
	blk := make([]byte, BlockSize)
	for i := range sum.Entries {
		if sum.Entries[i].Kind == KindPad {
			continue
		}
		rerr := l.Read(l.EntryAt(seg, i), blk)
		checked++
		var ce *types.CorruptError
		if errors.As(rerr, &ce) {
			corrupt++
			continue
		}
		if rerr != nil {
			return checked, corrupt, rerr
		}
	}
	return checked, corrupt, nil
}

// ReadSummary decodes the summary of a sealed (or partially synced)
// segment. ok is false if the segment has never been written or its
// summary is invalid.
func (l *Log) ReadSummary(seg int64) (Summary, bool, error) {
	if seg < 0 || seg >= l.nSegments {
		return Summary{}, false, fmt.Errorf("seglog: segment %d out of range: %w", seg, types.ErrInval)
	}
	l.mu.Lock()
	if seg == l.curSeg {
		// Serve the staged summary.
		s := Summary{Seq: l.seq, Entries: append([]SummaryEntry(nil), l.entries...)}
		l.mu.Unlock()
		return s, true, nil
	}
	// A sealed segment's block-0 summary may still be in flight; wait
	// it out so the lookup reads a settled image. (The drive's lock
	// hierarchy already excludes this — summary readers hold the
	// exclusive drive lock, which waits out every in-flight flush — so
	// this guards direct users of the package.)
	l.waitSealLocked(seg)
	l.mu.Unlock()
	b := scanBufs.Get().(*scanBuf)
	defer scanBufs.Put(b)
	return l.findSummary(seg, b)
}

// waitSealLocked waits out an in-flight seal of seg. Caller holds l.mu.
func (l *Log) waitSealLocked(seg int64) {
	for seg == l.sealSeg {
		l.flushStalls++
		l.flushCond.Wait()
	}
}

// Covered returns how many payload blocks of seg its newest durable
// summary describes (the staged entries, for the open segment): zero
// for a segment without one. It is the length of the segment's checksum
// table, so it decodes nothing but the Sum column, and the verified
// reads that follow find the table cached.
func (l *Log) Covered(seg int64) (int, error) {
	if seg < 0 || seg >= l.nSegments {
		return 0, fmt.Errorf("seglog: segment %d out of range: %w", seg, types.ErrInval)
	}
	l.mu.Lock()
	if seg == l.curSeg {
		n := len(l.entries)
		l.mu.Unlock()
		return n, nil
	}
	l.waitSealLocked(seg)
	l.mu.Unlock()
	sums, err := l.sumsFor(seg)
	return len(sums), err
}

// scanBuf is newestSummary's scratch: block 0 of a segment, and
// (allocated on first need) the rest of one, segment restOf's. ScanFrom
// borrows one from scanBufs for its whole scan, a one-segment lookup for
// its one.
type scanBuf struct {
	blk, rest []byte
	restOf    int64
}

// scanBufs is shared by every Log, not owned by one: a pool registers
// itself globally, and a pool inside a Log would keep a closed Log and
// its staging buffers reachable until two collections later.
var scanBufs = sync.Pool{New: func() any { return &scanBuf{blk: make([]byte, BlockSize)} }}

var zeroBlock [BlockSize]byte

// findSummary decodes the newest valid summary of a segment on disk.
// An open record with no snapshot behind it is no summary: it lists
// nothing.
func (l *Log) findSummary(seg int64, b *scanBuf) (Summary, bool, error) {
	sb, h, _, err := l.newestSummary(seg, b)
	if err != nil || sb == nil || h.count == 0 {
		return Summary{}, false, err
	}
	return decodeEntries(sb, h), true, nil
}

// block0 is what newestSummary found in a segment's block 0.
type block0 uint8

const (
	b0Junk    block0 = iota // neither of the others: a torn or rotted summary
	b0Zero                  // never written
	b0Summary               // a sealed summary or an open record
)

// newestSummary locates the newest valid summary block of a segment on
// disk by what block 0 holds (DESIGN.md §14.5), and returns it (aliasing
// b) with its header and what block 0 held. Block 0 is read as far as a
// summary reaches (summarySpan). A sealed summary: that is it. Zeros:
// never written (sb is nil). An open record: the newest
// trailing snapshot of this life (the slot right after the blocks it
// describes, newer than the record) among blocks 1.., fetched with one
// vectored read, or the record itself when there is none. Anything else
// — a torn or rotted record — is read like a record, never like zeros:
// taking an opened segment for a free one would silently drop an
// acknowledged tail; the reverse costs one read. Then sb is the newest
// valid snapshot of any life, or nil.
func (l *Log) newestSummary(seg int64, b *scanBuf) (sb []byte, h sumHeader, b0 block0, err error) {
	base := l.segBase(seg)
	blk := b.blk[:l.summarySpan()]
	if err := readBlocks(l.dev, base, blk); err != nil {
		return nil, sumHeader{}, b0Junk, fmt.Errorf("seglog: segment %d summary: %w", seg, err)
	}
	h, ok := checkSummary(blk)
	if ok && h.count == l.PayloadBlocks() {
		return blk, h, b0Summary, nil
	}
	if !ok && bytes.Equal(blk, zeroBlock[:len(blk)]) {
		return nil, sumHeader{}, b0Zero, nil
	}
	if ok && h.count == 0 {
		sb, b0 = blk, b0Summary // the record; snapshots older than it are an earlier life's
	} else {
		h = sumHeader{}
	}
	if len(b.rest) != l.PayloadBlocks()*BlockSize { // unused yet, or used by a log of another geometry
		b.rest = make([]byte, l.PayloadBlocks()*BlockSize)
	}
	if err := readBlocks(l.dev, base+1, b.rest); err != nil {
		return nil, sumHeader{}, b0, fmt.Errorf("seglog: segment %d payload: %w", seg, err)
	}
	b.restOf = seg
	for slot := 1; slot < l.PayloadBlocks(); slot++ {
		// A genuine snapshot in payload slot k describes the k before it.
		blk := b.rest[slot*BlockSize : (slot+1)*BlockSize]
		if s, ok := checkSummary(blk); ok && s.count == slot && (sb == nil || s.seq > h.seq) {
			sb, h = blk, s
		}
	}
	return sb, h, b0, nil
}

// sumHeader is the header of a summary block checkSummary accepted.
type sumHeader struct {
	seq        uint64
	count      int
	next, prev int64 // -1: noSeg; not yet bounded by the log's size
	opened     uint64
}

// checkSummary validates a candidate summary block (magic, hostile
// count, CRC) and returns its header without materializing the entries.
// Invalid candidates report ok=false, never an error: recovery probes
// arbitrary blocks looking for summaries.
func checkSummary(sb []byte) (sumHeader, bool) {
	if len(sb) < summaryHeaderSize || binary.LittleEndian.Uint32(sb[0:]) != summaryMagic {
		return sumHeader{}, false
	}
	count := int(binary.LittleEndian.Uint32(sb[12:]))
	if count < 0 || summaryLen(count) > BlockSize || summaryLen(count) > len(sb) {
		return sumHeader{}, false
	}
	if binary.LittleEndian.Uint32(sb[16:]) != summaryCRC(sb) {
		return sumHeader{}, false
	}
	return sumHeader{
		seq:    binary.LittleEndian.Uint64(sb[4:]),
		count:  count,
		next:   segOfWord(binary.LittleEndian.Uint32(sb[20:])),
		prev:   segOfWord(binary.LittleEndian.Uint32(sb[24:])),
		opened: binary.LittleEndian.Uint64(sb[28:]),
	}, true
}

// decodeSummary parses a candidate summary block checkSummary accepts.
func decodeSummary(sb []byte) (Summary, bool, error) {
	h, ok := checkSummary(sb)
	if !ok {
		return Summary{}, false, nil
	}
	return decodeEntries(sb, h), true, nil
}

// decodeEntries materializes the entries of a validated summary block.
func decodeEntries(sb []byte, h sumHeader) Summary {
	s := Summary{Seq: h.seq, Entries: make([]SummaryEntry, h.count)}
	off := summaryHeaderSize
	for i := range s.Entries {
		s.Entries[i] = SummaryEntry{
			Kind: Kind(sb[off]),
			Obj:  types.ObjectID(binary.LittleEndian.Uint64(sb[off+1:])),
			Key:  binary.LittleEndian.Uint64(sb[off+9:]),
			Time: types.Timestamp(binary.LittleEndian.Uint64(sb[off+17:])),
			Len:  binary.LittleEndian.Uint32(sb[off+25:]),
			Sum:  binary.LittleEndian.Uint32(sb[off+29:]),
		}
		off += summaryEntrySize
	}
	return s
}

// EntryAt returns the block address of entry i in segment seg.
func (l *Log) EntryAt(seg int64, i int) BlockAddr {
	return BlockAddr(l.segBase(seg) + int64(1+i))
}

// FreeSegment returns seg to the free pool. The caller (the cleaner)
// must have established that no live or in-window block remains in it,
// and, for a segment written since the last checkpoint, that the
// checkpoint after it is durable: the roll-forward chain runs through
// every such segment, and a reuse cuts it (the walk then falls back to
// probing every segment). Freeing the open segment is rejected. A held
// or quarantined segment is free for accounting but not handed out.
func (l *Log) FreeSegment(seg int64) error {
	if seg < 0 || seg >= l.nSegments {
		return fmt.Errorf("seglog: segment %d out of range: %w", seg, types.ErrInval)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seg == l.curSeg {
		return fmt.Errorf("seglog: cannot free open segment %d: %w", seg, types.ErrInval)
	}
	if seg == l.sealSeg {
		return fmt.Errorf("seglog: cannot free segment %d mid-flush: %w", seg, types.ErrInval)
	}
	was := l.allocatable(seg)
	l.free[seg] = true
	l.recountLocked(seg, was)
	delete(l.sums, seg)
	l.sumGen++
	if l.flushBufSeg == seg {
		l.flushBufSeg = -1
	}
	return nil
}

// IsFree reports whether seg sits in the allocator's free pool. The
// drive's consistency checker uses it to assert that no durable
// structure references a freed segment.
func (l *Log) IsFree(seg int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seg < 0 || seg >= l.nSegments {
		return false
	}
	return l.free[seg]
}

// MarkAllocated records (during recovery) that seg holds data.
func (l *Log) MarkAllocated(seg int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	was := l.allocatable(seg)
	l.free[seg] = false
	l.recountLocked(seg, was)
}

// SetSeq restores the write sequence counter during recovery.
func (l *Log) SetSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.seq {
		l.seq = seq
	}
}

// ScanFrom visits every written segment whose summary sequence is
// greater than afterSeq, in increasing sequence order. Recovery uses it
// to roll the object map forward from the last checkpoint. When afterSeq
// is the seq of the checkpoint ReadCheckpoint returned, it follows the
// log from that checkpoint's anchor (walkChain) and reads only the
// segments written since, plus the block 0 that ends the chain; it then
// holds the chain back from reuse until the next checkpoint and promises
// the chain's successor to the next open. Otherwise, or when the walk
// cannot vouch for the chain, it reads block 0 of every segment, and the
// rest of each unsealed one (probeAll); after a failed walk, the next
// open takes the lowest free segment and names no predecessor, since the
// promise at the chain's end is unknown. The summaries either reads
// become the segments' checksum tables. Only a log that has appended
// nothing since Open takes up the chain's promise. fn gets the payload
// blocks of a segment whose payload the scan read to find its newest
// snapshot (one with no seal in block 0), entry i at i*BlockSize, so
// the caller reads none of them again; it is nil for any other segment
// and valid only during fn. Such a segment has no checksum table for a
// journal block, so the bytes are what Read would return.
func (l *Log) ScanFrom(afterSeq uint64, fn func(seg int64, sum Summary, payload []byte) error) error {
	b := scanBufs.Get().(*scanBuf)
	defer scanBufs.Put(b)
	b.restOf = -1 // nothing read yet, whatever the buffer's last scan left
	l.mu.Lock()
	a := l.anchor
	l.mu.Unlock()
	var hits []hit
	var err error
	walked := a.ok && a.seq == afterSeq
	if walked {
		var t chainTail
		var why string
		if hits, t, why, err = l.walkChain(a, b); err != nil {
			return err
		}
		if why != "" {
			stdlog.Printf("seglog: %s; probing every segment", why)
			walked = false
		}
		l.mu.Lock()
		if l.appends == 0 {
			l.lastSeg, l.nextSeg, l.seq = t.last, t.next, max(l.seq, t.newest)
			l.holdLocked(t.chain)
		}
		l.mu.Unlock()
	}
	if !walked {
		if hits, err = l.probeAll(afterSeq, b); err != nil {
			return err
		}
	}
	for _, h := range hits {
		var payload []byte
		if h.seg == b.restOf {
			payload = b.rest[:len(h.sum.Entries)*BlockSize]
		}
		if err := fn(h.seg, h.sum, payload); err != nil {
			return err
		}
	}
	return nil
}

// hit is a segment the roll-forward scan replays.
type hit struct {
	seg int64
	sum Summary
}

// walkChain follows the log from anchor a (DESIGN.md §14.5) and returns
// the segments whose newest summary is above a.seq, in seq order. It
// steps to the segment a summary names as next only if that segment's
// newest summary is valid and no older than the predecessor's, names the
// predecessor as prev, opened no earlier than the predecessor's newest
// summary (the anchor: at exactly the seq the checkpoint recorded), and
// names a successor inside the log (hopFault). The chain ends at a block
// 0 that is exactly zero or a valid summary older than the predecessor's:
// the promised successor has not been opened. A block 0 that is neither
// does not end it, even with older snapshots behind it: a torn first
// record reads so, but so does a rotted seal over payload that merely
// looks like an old snapshot (a CRC is not a MAC). A snapshot
// names the successor promised when it was written, and the promise may
// move until the seal (recountLocked), so a successor named by a snapshot
// behind a block 0 that is no summary — a rotted seal, say — may be
// stepped to, but cannot end the chain. Anything else returns why the
// walk cannot vouch for the rest of the log, and the caller probes. The walk never consults a free bit: nothing in it comes
// from the drive's own bookkeeping, only from summaries on the device.
func (l *Log) walkChain(a anchor, b *scanBuf) (hits []hit, t chainTail, why string, err error) {
	t = chainTail{last: -1, next: -1}
	if a.seg < 0 || a.seg >= l.nSegments {
		return nil, t, "the checkpoint names no segment to resume in", nil
	}
	var chain []int64
	prev, prevSeq, seg, newest := a.prev, a.opened, a.seg, uint64(0)
	named := true // seg is the successor the checkpoint or prev's block 0 names
	for {
		if len(chain) == int(l.nSegments) {
			return nil, t, "the chain is longer than the log", nil
		}
		sb, h, b0, err := l.newestSummary(seg, b)
		if err != nil {
			return nil, t, "", err // skipping it would open on an older prefix, acked writes gone
		}
		if b0 == b0Zero || b0 == b0Summary && h.seq < prevSeq {
			if !named {
				return nil, t, fmt.Sprintf("segment %d, whose block 0 is no summary, promised %d in a snapshot, which never opened: its seal may name another", prev, seg), nil
			}
			break
		}
		if sb == nil || h.seq < prevSeq {
			return nil, t, fmt.Sprintf("segment %d holds neither a summary nor a zero block 0, nor a snapshot newer than seq %d", seg, prevSeq), nil
		}
		if why := hopFault(h, seg, prev, prevSeq, len(chain) == 0, l.nSegments); why != "" {
			return nil, t, why, nil
		}
		chain = append(chain, seg)
		newest = max(newest, h.seq)
		l.cacheSums(seg, sb, h)
		if h.count > 0 && h.seq > a.seq {
			hits = append(hits, hit{seg, decodeEntries(sb, h)})
		}
		prev, prevSeq, seg, named = seg, h.seq, h.next, b0 == b0Summary
	}
	return hits, chainTail{last: prev, next: seg, chain: chain, newest: newest}, "", nil
}

// chainTail is where a walk ended: the last segment on the chain (the
// anchor's predecessor when the anchor was never opened), the successor
// it promised, every segment on the chain, and the newest seq met.
type chainTail struct {
	last, next int64
	chain      []int64
	newest     uint64
}

// hopFault says why the chain may not step to seg, whose newest summary
// h is no older than its predecessor's (prev, with newest seq prevSeq),
// or "" if it may. For the anchor, prevSeq is the seq the checkpoint
// recorded it opening at, which h must match.
func hopFault(h sumHeader, seg, prev int64, prevSeq uint64, anchor bool, nSeg int64) string {
	switch {
	case h.prev != prev || h.prev == seg:
		return fmt.Sprintf("segment %d names %d as the segment opened before it, not %d", seg, h.prev, prev)
	case anchor && h.opened != prevSeq, h.opened < prevSeq:
		return fmt.Sprintf("segment %d opened at seq %d, out of step with the chain at seq %d", seg, h.opened, prevSeq)
	case h.next < 0:
		return fmt.Sprintf("segment %d opened with no free segment to name as its successor", seg)
	case h.next >= nSeg || h.next == seg:
		return fmt.Sprintf("segment %d names segment %d as its successor", seg, h.next)
	}
	return ""
}

// probeAll reads every segment and returns those whose newest summary is
// above afterSeq, in seq order. It trusts no pointer, so it is what the
// walk falls back to.
func (l *Log) probeAll(afterSeq uint64, b *scanBuf) ([]hit, error) {
	var hits []hit
	for seg := int64(0); seg < l.nSegments; seg++ {
		sb, h, _, err := l.newestSummary(seg, b)
		if err != nil {
			return nil, err // skipping it would open on an older prefix, acked writes gone
		}
		if sb != nil && h.count > 0 && h.seq > afterSeq {
			l.cacheSums(seg, sb, h)
			hits = append(hits, hit{seg, decodeEntries(sb, h)})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].sum.Seq < hits[j].sum.Seq })
	return hits, nil
}

// CheckpointCapacity returns the payload bytes one checkpoint slot can
// hold (state blob plus index blob together).
func (l *Log) CheckpointCapacity() int {
	return l.cfg.CheckpointBlocks*BlockSize - cpHeaderSize
}

// WriteCheckpoint durably stores an opaque state blob (the drive's
// object map and allocator state) plus an optional recovery-index blob
// in the next alternating checkpoint slot. The two blobs share the slot
// and the single device write, but carry independent checksums: a slot
// is valid whenever the state blob's CRC holds, while a missing or
// corrupt index blob merely degrades ReadCheckpoint's index to nil —
// the caller falls back to full replay, never to a different anchor.
// Both blobs together must fit CheckpointCapacity; index may be nil. The
// header also records where the log resumes after the checkpoint (the
// anchor of ScanFrom's chain walk); once the slot is durable, the chain
// a recovery held back is released to the allocator.
func (l *Log) WriteCheckpoint(data, index []byte) error {
	maxLen := l.CheckpointCapacity()
	if len(data)+len(index) > maxLen {
		return fmt.Errorf("seglog: checkpoint %d+%d bytes exceeds slot %d: %w", len(data), len(index), maxLen, types.ErrTooLarge)
	}
	l.mu.Lock()
	slot := l.cpSlot
	l.cpSlot = 1 - l.cpSlot
	l.seq++
	seq := l.seq
	a := l.anchorLocked(seq)
	l.mu.Unlock()

	blob := make([]byte, cpHeaderSize+len(data)+len(index))
	binary.LittleEndian.PutUint32(blob[0:], cpMagic)
	binary.LittleEndian.PutUint64(blob[4:], seq)
	binary.LittleEndian.PutUint32(blob[12:], uint32(len(data)))
	binary.LittleEndian.PutUint32(blob[16:], crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint32(blob[20:], uint32(len(index)))
	binary.LittleEndian.PutUint32(blob[24:], crc32.ChecksumIEEE(index))
	binary.LittleEndian.PutUint32(blob[28:], segWord(a.seg))
	binary.LittleEndian.PutUint32(blob[32:], segWord(a.prev))
	binary.LittleEndian.PutUint64(blob[36:], a.opened)
	binary.LittleEndian.PutUint32(blob[44:], crc32.ChecksumIEEE(blob[:44]))
	copy(blob[cpHeaderSize:], data)
	copy(blob[cpHeaderSize+len(data):], index)
	// Padded to whole sectors, as a summary is written: the header's
	// lengths and CRCs bound the blob, so ReadCheckpoint never looks at
	// what the rest of its last block still holds.
	if r := len(blob) % disk.SectorSize; r != 0 {
		blob = append(blob, make([]byte, disk.SectorSize-r)...)
	}
	if err := l.dev.WriteSectors(l.cpBase(slot)*sectorsPerBlock, blob); err != nil {
		return err
	}
	// Barrier: the checkpoint authorizes segment reuse (the drive drains
	// its deferred-free queue right after), so it must be on stable media
	// before this call returns.
	if err := l.forceDev(); err != nil {
		return err
	}
	l.mu.Lock()
	l.holdLocked(nil)
	l.mu.Unlock()
	return nil
}

// anchorLocked is the anchor a checkpoint at seq records: the open
// segment, or else the successor promised to open next (reserved now if
// none is), which opens at exactly seq, since no seq is issued while no
// segment is open but by a later checkpoint, which records its own.
func (l *Log) anchorLocked(seq uint64) anchor {
	if l.curSeg >= 0 {
		return anchor{seg: l.curSeg, prev: l.curPrev, opened: l.curOpened}
	}
	if l.nextSeg < 0 {
		l.nextSeg = l.lowestAllocatableLocked()
	}
	return anchor{seg: l.nextSeg, prev: l.lastSeg, opened: seq}
}

// magic, seq, lenA, crcA, lenB, crcB, anchor segment, its prev, the seq
// it opened at, and a CRC of all of these
const cpHeaderSize = 4 + 8 + 4 + 4 + 4 + 4 + 4 + 4 + 8 + 4

// ReadCheckpoint returns the newest valid checkpoint blob, its optional
// recovery index, and the log sequence at which it was taken. ok is
// false when no valid checkpoint exists (freshly formatted device). It
// reads both slots' header sectors, then the blob of the newest slot
// whose header is valid, from the sector after the header, whose bytes
// the header pass holds, so no sector of a slot is read twice and a
// blob that fits the header sector costs no read of its own. A slot
// wins whole: its object map checks, and so does its index, or it was
// written without one. A slot that fails either — a checkpoint write
// torn by a crash — yields to the other slot, whose blob is read only
// then; that is the whole point of alternating slots. A slot torn inside
// its index authorized nothing: WriteCheckpoint forces the slot before
// it returns, and the drive releases segments only after that, so every
// segment the other slot's map and index name still holds what they
// say (DESIGN.md §14). Only when no slot is whole does the newest slot
// whose object map checks win without its index (index nil), which its
// caller answers with a full scan. It also sets the anchor
// ScanFrom(seq) walks from. Without a checkpoint that is where Format
// left the log — the first segment opened, at seq 0 — unless a slot
// holds a checkpoint that no longer decodes: then the log has moved on
// from there, and nothing says to where.
func (l *Log) ReadCheckpoint() (data, index []byte, seq uint64, ok bool, err error) {
	var hdrs [2][]byte // a slot's header sector, nil unless its header is valid
	written := false
	for slot := range hdrs {
		hdr := make([]byte, disk.SectorSize)
		if err := l.dev.ReadSectors(l.cpBase(slot)*sectorsPerBlock, hdr); err != nil {
			return nil, nil, 0, false, err
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != cpMagic {
			continue
		}
		written = true
		if binary.LittleEndian.Uint32(hdr[44:]) != crc32.ChecksumIEEE(hdr[:44]) ||
			int(binary.LittleEndian.Uint32(hdr[12:])) > l.CheckpointCapacity() {
			continue
		}
		hdrs[slot] = hdr
	}
	first := 0 // the slot with the newer valid header
	if hdrs[0] == nil || hdrs[1] != nil && binary.LittleEndian.Uint64(hdrs[1][4:]) > binary.LittleEndian.Uint64(hdrs[0][4:]) {
		first = 1
	}
	mapOnly, mapData := -1, []byte(nil) // the newest slot whose object map checks, if none is whole
	for _, slot := range [2]int{first, 1 - first} {
		if hdrs[slot] == nil {
			continue
		}
		data, index, whole, err := l.readCheckpointBlob(slot, hdrs[slot])
		if err != nil {
			return nil, nil, 0, false, err
		}
		if whole {
			return data, index, l.adoptCheckpoint(slot, hdrs[slot]), true, nil
		}
		if data != nil && mapOnly < 0 {
			mapOnly, mapData = slot, data
		}
	}
	if mapOnly >= 0 {
		return mapData, nil, l.adoptCheckpoint(mapOnly, hdrs[mapOnly]), true, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.anchor = anchor{ok: !written, seg: 0, prev: -1}
	return nil, nil, 0, false, nil
}

// adoptCheckpoint takes the checkpoint in slot, whose header is hdr, for
// the log's: the anchor the walk starts from, the slot the next
// checkpoint overwrites (the other one) and the seq. It returns the seq.
func (l *Log) adoptCheckpoint(slot int, hdr []byte) uint64 {
	seq := binary.LittleEndian.Uint64(hdr[4:])
	l.mu.Lock()
	defer l.mu.Unlock()
	l.anchor = anchor{ok: true, seq: seq,
		seg:    segOfWord(binary.LittleEndian.Uint32(hdr[28:])),
		prev:   segOfWord(binary.LittleEndian.Uint32(hdr[32:])),
		opened: binary.LittleEndian.Uint64(hdr[36:])}
	l.cpSlot = 1 - slot
	l.seq = max(l.seq, seq)
	return seq
}

// cpBase is the first block of checkpoint slot slot.
func (l *Log) cpBase(slot int) int64 { return int64(1 + slot*l.cfg.CheckpointBlocks) }

// readCheckpointBlob reads the blob of the slot whose valid header
// sector is hdr, past that sector, and returns its state payload, nil if
// the payload fails its CRC, and its index, nil if that is absent or
// fails. whole says the payload checks and the index either checks or
// was written absent.
func (l *Log) readCheckpointBlob(slot int, hdr []byte) (data, index []byte, whole bool, err error) {
	nA := int(binary.LittleEndian.Uint32(hdr[12:]))
	nB := int(binary.LittleEndian.Uint32(hdr[20:]))
	hostile := nB < 0 || nA+nB > l.CheckpointCapacity()
	if hostile {
		nB = 0 // drop the index, keep the slot
	}
	total := cpHeaderSize + nA + nB
	blob := make([]byte, (total+disk.SectorSize-1)/disk.SectorSize*disk.SectorSize)
	copy(blob, hdr)
	if rest := blob[len(hdr):]; len(rest) > 0 {
		if err := l.dev.ReadSectors(l.cpBase(slot)*sectorsPerBlock+1, rest); err != nil {
			return nil, nil, false, err
		}
	}
	data = blob[cpHeaderSize : cpHeaderSize+nA]
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(hdr[16:]) {
		return nil, nil, false, nil
	}
	if cand := blob[cpHeaderSize+nA : total]; nB > 0 && crc32.ChecksumIEEE(cand) == binary.LittleEndian.Uint32(hdr[24:]) {
		index = cand
	}
	return data, index, !hostile && (nB == 0 || index != nil), nil
}

// CurrentSegment returns the open segment index, or -1.
func (l *Log) CurrentSegment() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curSeg
}

func writeBlocks(dev disk.Device, block int64, data []byte) error {
	return dev.WriteSectors(block*sectorsPerBlock, data)
}

func readBlocks(dev disk.Device, block int64, data []byte) error {
	return dev.ReadSectors(block*sectorsPerBlock, data)
}
