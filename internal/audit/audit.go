// Package audit implements the S4 audit log record format (OSDI '00,
// §4.2.3).
//
// The drive appends one record per RPC — read, write, and administrative
// alike — including the command's arguments and the originating client
// and user. Records are packed into 4KB blocks that the drive writes
// through its segment log under the reserved audit object. Because only
// the drive front end can write them, audit blocks are not versioned.
//
// This package is pure encoding: the drive owns block placement, and
// readers stream records back out of a block sequence.
package audit

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"s4/internal/seglog"
	"s4/internal/types"
)

// Record is one audited request.
type Record struct {
	Seq    uint64 // drive-assigned, strictly increasing
	Time   types.Timestamp
	Client types.ClientID
	User   types.UserID
	Op     types.Op
	Obj    types.ObjectID // NoObject when not applicable
	// Offset/Length describe the byte range of data operations; for
	// other operations they carry op-specific scalars (e.g. the new
	// window for SetWindow).
	Offset uint64
	Length uint64
	// Arg carries the textual argument (partition names, etc.).
	Arg string
	// Raw is the request image as received at the security perimeter —
	// the paper's audit log records full command arguments (§4.2.3),
	// which is what makes records a few hundred bytes each and gives
	// auditing its measurable (1–3%) cost.
	Raw []byte
	// OK records whether the drive executed the request successfully.
	OK bool
	// Errno is the stable error code for failed requests (0 when OK).
	Errno uint8
	// Shard is the index of the drive that produced this record,
	// tagged by the shard router when it merges per-shard audit
	// streams so diagnosis still answers "which device saw this
	// write". It is deliberately NOT part of the on-disk encoding:
	// a single drive does not know its position in a ring, and
	// adding a field to Encode/Decode would shift every record
	// boundary in existing audit blocks. Zero on a single drive.
	Shard int
}

// Encode appends the record's wire form to dst.
func (r *Record) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(r.Time))
	dst = binary.AppendUvarint(dst, uint64(r.Client))
	dst = binary.AppendUvarint(dst, uint64(r.User))
	dst = append(dst, byte(r.Op))
	dst = binary.AppendUvarint(dst, uint64(r.Obj))
	dst = binary.AppendUvarint(dst, r.Offset)
	dst = binary.AppendUvarint(dst, r.Length)
	dst = binary.AppendUvarint(dst, uint64(len(r.Arg)))
	dst = append(dst, r.Arg...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Raw)))
	dst = append(dst, r.Raw...)
	flags := byte(0)
	if r.OK {
		flags = 1
	}
	return append(dst, flags, r.Errno)
}

// EncodedSize returns the exact encoded length of r, without encoding it.
func (r *Record) EncodedSize() int {
	return uvarintLen(r.Seq) + uvarintLen(uint64(r.Time)) + uvarintLen(uint64(r.Client)) +
		uvarintLen(uint64(r.User)) + 1 + uvarintLen(uint64(r.Obj)) + uvarintLen(r.Offset) +
		uvarintLen(r.Length) + uvarintLen(uint64(len(r.Arg))) + len(r.Arg) +
		uvarintLen(uint64(len(r.Raw))) + len(r.Raw) + 2
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Decode parses one record from data, returning the remainder.
func Decode(data []byte) (Record, []byte, error) {
	var r Record
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("audit: bad varint: %w", types.ErrCorrupt)
		}
		data = data[n:]
		return v, nil
	}
	var v uint64
	var err error
	if r.Seq, err = getU(); err != nil {
		return r, nil, err
	}
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	r.Time = types.Timestamp(v)
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	r.Client = types.ClientID(v)
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	r.User = types.UserID(v)
	if len(data) < 1 {
		return r, nil, fmt.Errorf("audit: truncated op: %w", types.ErrCorrupt)
	}
	r.Op = types.Op(data[0])
	data = data[1:]
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	r.Obj = types.ObjectID(v)
	if r.Offset, err = getU(); err != nil {
		return r, nil, err
	}
	if r.Length, err = getU(); err != nil {
		return r, nil, err
	}
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	if v > uint64(len(data)) {
		return r, nil, fmt.Errorf("audit: truncated arg: %w", types.ErrCorrupt)
	}
	r.Arg = string(data[:v])
	data = data[v:]
	if v, err = getU(); err != nil {
		return r, nil, err
	}
	if v > uint64(len(data)) {
		return r, nil, fmt.Errorf("audit: truncated raw image: %w", types.ErrCorrupt)
	}
	if v > 0 {
		r.Raw = append([]byte(nil), data[:v]...)
	}
	data = data[v:]
	if len(data) < 2 {
		return r, nil, fmt.Errorf("audit: truncated flags: %w", types.ErrCorrupt)
	}
	r.OK = data[0]&1 != 0
	r.Errno = data[1]
	data = data[2:]
	return r, data, nil
}

// Block layout: magic(4) count(2) used(2) then packed records.
const (
	blockMagic = 0x53344155 // "S4AU"
	// BlockHeaderSize is the room a block's first record follows.
	BlockHeaderSize = 8
	// BlockCapacity is the payload space of one audit block.
	BlockCapacity = seglog.BlockSize - BlockHeaderSize
)

// FinishBlock fills in the header of blk, which holds BlockHeaderSize
// bytes of room for it followed by count encoded records, at most
// seglog.BlockSize bytes in all. A writer that packs records as they
// arrive encodes each one straight into the block and finishes it when
// the next would not fit; EncodeBlock is the same in one call.
func FinishBlock(blk []byte, count int) {
	binary.LittleEndian.PutUint32(blk[0:], blockMagic)
	binary.LittleEndian.PutUint16(blk[4:], uint16(count))
	binary.LittleEndian.PutUint16(blk[6:], uint16(len(blk)))
}

// EncodeBlock packs records into one audit block.
func EncodeBlock(recs []Record) ([]byte, error) {
	if len(recs) == 0 || len(recs) > 0xFFFF {
		return nil, fmt.Errorf("audit: block with %d records: %w", len(recs), types.ErrInval)
	}
	buf := make([]byte, BlockHeaderSize, seglog.BlockSize)
	for i := range recs {
		buf = recs[i].Encode(buf)
		if len(buf) > seglog.BlockSize {
			return nil, fmt.Errorf("audit: records overflow block: %w", types.ErrTooLarge)
		}
	}
	FinishBlock(buf, len(recs))
	return buf, nil
}

// DecodeBlock unpacks an audit block.
func DecodeBlock(data []byte) ([]Record, error) {
	if len(data) < BlockHeaderSize {
		return nil, fmt.Errorf("audit: short block: %w", types.ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:]) != blockMagic {
		return nil, fmt.Errorf("audit: bad block magic: %w", types.ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(data[4:]))
	used := int(binary.LittleEndian.Uint16(data[6:]))
	if used < BlockHeaderSize || used > len(data) {
		return nil, fmt.Errorf("audit: block length %d out of range: %w", used, types.ErrCorrupt)
	}
	rest := data[BlockHeaderSize:used]
	recs := make([]Record, 0, count)
	for i := 0; i < count; i++ {
		var r Record
		var err error
		r, rest, err = Decode(rest)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}
