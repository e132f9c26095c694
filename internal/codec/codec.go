// Package codec reads back the variable-length structures S4 keeps on
// its medium: segment summaries, journal entries, audit records, the
// object map, the segment index, inode roots with their block-map pairs,
// and the partition and policy tables.
//
// Everything on the medium is treated as hostile until decoded: bit rot,
// a torn write or an image from somewhere else reaches the decoders as
// ordinary bytes. A Reader makes one rule hold for all of them. Every
// failure is a types.ErrCorrupt naming the decoder, never a panic, and
// no count read from the medium sizes an allocation before Count has
// held it to the bytes that are actually there.
//
// A Reader latches its first failure. After it every read returns zero
// and consumes nothing, so a decoder reads all of its fields and checks
// once, at the end. Encoders need no counterpart: they append with
// binary.AppendUvarint, binary.AppendVarint and
// binary.LittleEndian.AppendUint*.
package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"s4/internal/types"
)

// Reader decodes little-endian integers, uvarints and byte strings off
// the front of a byte slice.
type Reader struct {
	name string
	data []byte
	err  error
}

// NewReader returns a Reader over data whose failures are prefixed with
// name, e.g. "journal" or "core: segment index".
func NewReader(name string, data []byte) Reader {
	return Reader{name: name, data: data}
}

// Fail latches a failure, unless one is latched already, and returns the
// first: a types.ErrCorrupt prefixed with the reader's name. Nothing
// more is read after it.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s: %w", r.name, fmt.Sprintf(format, args...), types.ErrCorrupt)
	}
	r.data = nil
	return r.err
}

// Err returns the latched failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not yet read (nil after a failure).
func (r *Reader) Rest() []byte { return r.data }

// Done returns the latched failure, or a failure if any byte is left
// unread.
func (r *Reader) Done() error {
	if len(r.data) != 0 {
		return r.Fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

// take consumes n bytes, or fails if fewer remain.
func (r *Reader) take(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.Fail("%d bytes wanted, %d left", n, len(r.data))
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads a signed (zigzag) varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Bytes reads n bytes. The result aliases the input; it is nil when n is
// zero or after a failure.
func (r *Reader) Bytes(n int) []byte {
	if n == 0 {
		return nil
	}
	return r.take(n)
}

// Blob reads a uvarint length and that many bytes, returning a private
// copy (nil when empty).
func (r *Reader) Blob() []byte {
	return bytes.Clone(r.Bytes(r.Count(r.Uvarint(), 1, 0)))
}

// Count vets a count of elements read from the medium before anything
// is sized by it: it refuses n above max (when max > 0) or beyond what
// the remaining bytes can hold at minElem bytes an element. It returns
// n as an int, or 0 after a failure.
func (r *Reader) Count(n uint64, minElem, max int) int {
	switch {
	case r.err != nil:
		return 0
	case max > 0 && n > uint64(max):
		r.Fail("count %d over %d", n, max)
		return 0
	case n > uint64(len(r.data)/minElem):
		r.Fail("count %d of %d-byte elements in %d bytes", n, minElem, len(r.data))
		return 0
	}
	return int(n)
}
