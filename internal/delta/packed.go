// Packed delta blocks (DESIGN.md §16).
//
// The segment log is 4KB-block granular, so storing one per-block
// reverse delta per log block would save no physical space at all — a
// 300-byte delta would still burn a 4KB slot. Instead the drive packs
// several encoded deltas into one KindDelta log block. Each slot is
// addressed as packedBlockAddr*SlotsPerRef + slot by the journal's
// DeltaMask'd Old pointers, carries its own CRC32 (defense in depth
// under the segment summary's whole-block checksum), and records the
// address of the full history block it replaced so indexed crash
// recovery can settle usage accounting without replaying data.
//
// Block layout:
//
//	magic(4) count(1)
//	directory: count × { off(2) len(2) flags(1) crc(4) orig(8) }
//	payloads (byte-packed, in directory order)
package delta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"s4/internal/types"
)

const (
	packedMagic = 0x53344450 // "S4DP"
	packedHdr   = 5
	slotDirSize = 2 + 2 + 1 + 4 + 8

	// MaxSlots bounds the per-block slot count; references multiply the
	// block address by SlotsPerRef, which must be ≥ MaxSlots.
	MaxSlots = 24
	// SlotsPerRef is the packing factor of slot references
	// (ref = blockAddr*SlotsPerRef + slot). Matches
	// journal.DeltaSlotsPerBlock; asserted in core at init.
	SlotsPerRef = 32

	// slotFlate marks a payload that was DEFLATE-compressed after delta
	// encoding.
	slotFlate = 1 << 0
)

// Slot is one packed delta: the encoded (possibly compressed) payload
// plus the address of the full-size history block it replaced.
type Slot struct {
	Payload []byte
	Flate   bool
	// Orig is the log block address of the full history block this
	// delta replaced; consumed only by indexed crash recovery.
	Orig uint64
}

// PackedBuilder accumulates slots into one block image.
type PackedBuilder struct {
	blockSize int
	slots     []Slot
	payload   int
}

// NewPackedBuilder returns a builder for blocks of blockSize bytes.
func NewPackedBuilder(blockSize int) *PackedBuilder {
	return &PackedBuilder{blockSize: blockSize}
}

// Room reports whether a payload of n bytes would still fit.
func (b *PackedBuilder) Room(n int) bool {
	if len(b.slots) >= MaxSlots {
		return false
	}
	return packedHdr+(len(b.slots)+1)*slotDirSize+b.payload+n <= b.blockSize
}

// Add appends one slot, returning its index. The caller must have
// checked Room.
func (b *PackedBuilder) Add(s Slot) int {
	b.slots = append(b.slots, s)
	b.payload += len(s.Payload)
	return len(b.slots) - 1
}

// Finish serializes the staged slots into a block image of exactly the
// payload-bearing prefix (the log pads the rest with zeros).
func (b *PackedBuilder) Finish() []byte {
	out := make([]byte, packedHdr+len(b.slots)*slotDirSize, b.blockSize)
	binary.LittleEndian.PutUint32(out[0:], packedMagic)
	out[4] = byte(len(b.slots))
	off := len(out)
	for i, s := range b.slots {
		p := packedHdr + i*slotDirSize
		binary.LittleEndian.PutUint16(out[p:], uint16(off))
		binary.LittleEndian.PutUint16(out[p+2:], uint16(len(s.Payload)))
		if s.Flate {
			out[p+4] = slotFlate
		}
		binary.LittleEndian.PutUint32(out[p+5:], crc32.ChecksumIEEE(s.Payload))
		binary.LittleEndian.PutUint64(out[p+9:], s.Orig)
		out = append(out, s.Payload...)
		off += len(s.Payload)
	}
	return out
}

// UnpackSlot extracts and CRC-verifies slot i of a packed block.
func UnpackSlot(block []byte, i int) (Slot, error) {
	n, err := packedCount(block)
	if err != nil {
		return Slot{}, err
	}
	if i < 0 || i >= n {
		return Slot{}, fmt.Errorf("delta: packed slot %d of %d: %w", i, n, types.ErrCorrupt)
	}
	p := packedHdr + i*slotDirSize
	off := int(binary.LittleEndian.Uint16(block[p:]))
	plen := int(binary.LittleEndian.Uint16(block[p+2:]))
	if off < packedHdr+n*slotDirSize || off+plen > len(block) {
		return Slot{}, fmt.Errorf("delta: packed slot %d payload out of bounds: %w", i, types.ErrCorrupt)
	}
	s := Slot{
		Payload: block[off : off+plen],
		Flate:   block[p+4]&slotFlate != 0,
		Orig:    binary.LittleEndian.Uint64(block[p+9:]),
	}
	if crc32.ChecksumIEEE(s.Payload) != binary.LittleEndian.Uint32(block[p+5:]) {
		return Slot{}, fmt.Errorf("delta: packed slot %d checksum mismatch: %w", i, types.ErrCorrupt)
	}
	return s, nil
}

// OrigAddrs returns the replaced-block address of every slot. It does
// not verify payloads; recovery accounting needs only the directory.
func OrigAddrs(block []byte) ([]uint64, error) {
	n, err := packedCount(block)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = binary.LittleEndian.Uint64(block[packedHdr+i*slotDirSize+9:])
	}
	return out, nil
}

func packedCount(block []byte) (int, error) {
	if len(block) < packedHdr || binary.LittleEndian.Uint32(block[0:]) != packedMagic {
		return 0, fmt.Errorf("delta: not a packed delta block: %w", types.ErrCorrupt)
	}
	n := int(block[4])
	if n == 0 || n > MaxSlots || packedHdr+n*slotDirSize > len(block) {
		return 0, fmt.Errorf("delta: packed block slot count %d: %w", n, types.ErrCorrupt)
	}
	return n, nil
}

// ApplySlot materializes the older version of a block from packed slot
// i and the newer content the delta was encoded against, into dst as
// ApplyInto does. Every failure wraps types.ErrCorrupt; a rotted delta
// never yields garbage bytes.
func ApplySlot(dst, block []byte, i int, newer []byte) ([]byte, error) {
	s, err := UnpackSlot(block, i)
	if err != nil {
		return nil, err
	}
	payload := s.Payload
	if s.Flate {
		if payload, err = Decompress(payload); err != nil {
			return nil, err
		}
	}
	return ApplyInto(dst, newer, payload)
}

// EncodeSlot reverse-delta-encodes old against newer and reports the
// resulting slot (without Orig), or ok=false when no encoding of it is
// at most maxLen bytes. The payload is the raw delta whenever that is
// within maxLen: whether compressing it saves anything depends on what
// shares its packed block, so PackSlots decides. A raw delta over maxLen
// is DEFLATEd here, where that alone can turn a rejection into a slot.
func EncodeSlot(newer, old []byte, maxLen int) (Slot, bool) {
	e := encoders.Get().(*encoder)
	defer e.release()
	enc := e.encode(newer, old)
	flate := false
	if len(enc) > maxLen {
		c, err := e.deflate(enc)
		if err != nil || len(c) > maxLen {
			return Slot{}, false
		}
		enc, flate = c, true
	}
	// The caller holds the payload until its packed block is built; it
	// must not alias the encoder's buffers.
	return Slot{Payload: bytes.Clone(enc), Flate: flate}, true
}

// Placement locates a packed slot in a PackSlots result: directory
// index Slot of block image Block.
type Placement struct{ Block, Slot int }

// PackSlots packs one journal entry's slots (at least one), in order,
// into packed blocks of blockSize bytes: a slot goes into the block
// being filled, or starts the next one when it does not fit. It returns
// the block images and where each slot went.
//
// It is also where compression is decided, because the history pool is
// counted in blocks and this is where the count is known. Slots that fit
// one block as they stand are stored as they stand: no encoding of them
// takes fewer blocks than one. Otherwise every raw slot is DEFLATEd and
// stored compressed when that is smaller, which is what a block holds
// when every slot is compressed as it is encoded — so the number of
// blocks, and in this case every stored byte, is what that gives.
// slots[i].Payload and Flate are updated to what was stored.
func PackSlots(slots []Slot, blockSize int) (blocks [][]byte, at []Placement) {
	raw := packedHdr + len(slots)*slotDirSize
	for _, s := range slots {
		raw += len(s.Payload)
	}
	if len(slots) > MaxSlots || raw > blockSize {
		e := encoders.Get().(*encoder)
		for i := range slots {
			s := &slots[i]
			if s.Flate {
				continue
			}
			if c, err := e.deflate(s.Payload); err == nil && len(c) < len(s.Payload) {
				s.Payload, s.Flate = bytes.Clone(c), true
			}
		}
		e.release()
	}
	at = make([]Placement, len(slots))
	b := NewPackedBuilder(blockSize)
	for i, s := range slots {
		if !b.Room(len(s.Payload)) {
			blocks = append(blocks, b.Finish())
			b = NewPackedBuilder(blockSize)
		}
		at[i] = Placement{Block: len(blocks), Slot: b.Add(s)}
	}
	return append(blocks, b.Finish()), at
}
