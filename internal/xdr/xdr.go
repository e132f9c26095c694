// Package xdr implements the subset of XDR (RFC 1014/4506) needed by
// ONC RPC and NFSv2: 32/64-bit integers, booleans, fixed and variable
// opaques, and strings, all 4-byte aligned, big-endian.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShort reports a truncated buffer.
var ErrShort = errors.New("xdr: short buffer")

// Encoder appends XDR-encoded values to a byte slice.
type Encoder struct {
	b []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.b }

// Reset points the encoder at a caller-owned buffer: values are appended
// after buf's current contents, growing it only when its capacity runs
// out, so one buffer can be reused across messages without allocating.
// Resetting to a prefix of Bytes truncates the stream.
func (e *Encoder) Reset(buf []byte) { e.b = buf }

// Uint32 appends a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	var t [4]byte
	binary.BigEndian.PutUint32(t[:], v)
	e.b = append(e.b, t[:]...)
}

// Int32 appends a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 appends an XDR hyper.
func (e *Encoder) Uint64(v uint64) {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	e.b = append(e.b, t[:]...)
}

// Bool appends an XDR boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// OpaqueFixed appends bytes with no length prefix, padded to 4.
func (e *Encoder) OpaqueFixed(b []byte) {
	e.b = append(e.b, b...)
	for len(e.b)%4 != 0 {
		e.b = append(e.b, 0)
	}
}

// Opaque appends a variable-length opaque (length + data + pad).
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.OpaqueFixed(b)
}

// String appends an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Decoder consumes XDR-encoded values from a byte slice. Like
// codec.Reader it latches its first failure: every read after it
// returns zero and consumes nothing, so a caller reads a whole message
// and checks Err once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Remaining returns the unconsumed byte count (0 after a failure).
func (d *Decoder) Remaining() int { return len(d.b) }

// Err returns the latched failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail latches err, unless a failure is latched already or err is nil.
// Nothing more is read after it.
func (d *Decoder) Fail(err error) {
	if d.err == nil && err != nil {
		d.err, d.b = err, nil
	}
}

// take consumes n bytes, or fails if fewer remain. The result is
// clipped, so an append to it cannot reach the rest of the buffer.
func (d *Decoder) take(n int) []byte {
	switch {
	case d.err != nil:
		return nil
	case n < 0 || n > len(d.b):
		d.Fail(fmt.Errorf("%w (need %d, have %d)", ErrShort, n, len(d.b)))
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Int32 reads a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 reads an XDR hyper.
func (d *Decoder) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool reads an XDR boolean.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// OpaqueFixed reads n bytes plus padding. The result is a view of the
// decoder's buffer, valid for as long as the caller keeps that buffer
// unchanged.
func (d *Decoder) OpaqueFixed(n int) []byte {
	if b := d.take(n + (4-n%4)%4); b != nil {
		return b[:n:n]
	}
	return nil
}

// Opaque reads a variable-length opaque bounded by max (0 = bounded
// only by the bytes present), as a view like OpaqueFixed's.
func (d *Decoder) Opaque(max int) []byte {
	n := d.Uint32()
	if max > 0 && n > uint32(max) {
		d.Fail(fmt.Errorf("xdr: opaque of %d exceeds bound %d", n, max))
	}
	return d.OpaqueFixed(int(n))
}

// String reads an XDR string bounded by max bytes.
func (d *Decoder) String(max int) string { return string(d.Opaque(max)) }
