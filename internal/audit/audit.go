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

	"s4/internal/codec"
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

// Decode parses one record from data, returning the remainder.
func Decode(data []byte) (Record, []byte, error) {
	r := codec.NewReader("audit", data)
	rec := decode(&r)
	return rec, r.Rest(), r.Err()
}

// minRecordSize is the shortest encoding a record can have: nine
// one-byte varints, the op and the two flag bytes.
const minRecordSize = 12

// decode reads one record off r; Raw is a private copy.
func decode(r *codec.Reader) Record {
	rec := Record{
		Seq:    r.Uvarint(),
		Time:   types.Timestamp(r.Uvarint()),
		Client: types.ClientID(r.Uvarint()),
		User:   types.UserID(r.Uvarint()),
		Op:     types.Op(r.U8()),
		Obj:    types.ObjectID(r.Uvarint()),
		Offset: r.Uvarint(),
		Length: r.Uvarint(),
	}
	rec.Arg = string(r.Bytes(r.Count(r.Uvarint(), 1, 0)))
	rec.Raw = r.Blob()
	rec.OK = r.U8()&1 != 0
	rec.Errno = r.U8()
	return rec
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
// arrive encodes each one straight into the block and, once one
// overflows it, finishes the records before it; EncodeBlock is the same
// in one call.
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
	r := codec.NewReader("audit", data)
	magic, count, used := r.U32(), r.U16(), int(r.U16())
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case magic != blockMagic:
		return nil, r.Fail("bad block magic")
	case used < BlockHeaderSize || used > len(data):
		return nil, r.Fail("block length %d out of range", used)
	}
	r = codec.NewReader("audit", data[BlockHeaderSize:used])
	recs := make([]Record, r.Count(uint64(count), minRecordSize, 0))
	for i := range recs {
		recs[i] = decode(&r)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
