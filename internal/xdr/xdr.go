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

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	b []byte
	i int
}

// NewDecoder wraps b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Remaining returns the unconsumed byte count.
func (d *Decoder) Remaining() int { return len(d.b) - d.i }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.Remaining() < n {
		return nil, fmt.Errorf("%w (need %d, have %d)", ErrShort, n, d.Remaining())
	}
	out := d.b[d.i : d.i+n]
	d.i += n
	return out, nil
}

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Int32 reads a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 reads an XDR hyper.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Bool reads an XDR boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// OpaqueFixed reads n bytes plus padding.
func (d *Decoder) OpaqueFixed(n int) ([]byte, error) {
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	pad := (4 - n%4) % 4
	if _, err := d.take(pad); err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Opaque reads a variable-length opaque bounded by max (0 = unbounded).
func (d *Decoder) Opaque(max int) ([]byte, error) {
	b, err := d.OpaqueRef(max)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// OpaqueRef is Opaque without the copy: the result is a sub-slice of the
// decoder's buffer, valid for as long as the caller keeps that buffer
// unchanged.
func (d *Decoder) OpaqueRef(max int) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if max > 0 && int(n) > max {
		return nil, fmt.Errorf("xdr: opaque of %d exceeds bound %d", n, max)
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, ErrShort
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	if _, err := d.take((4 - int(n)%4) % 4); err != nil {
		return nil, err
	}
	return b, nil
}

// String reads an XDR string bounded by max bytes.
func (d *Decoder) String(max int) (string, error) {
	b, err := d.Opaque(max)
	return string(b), err
}
