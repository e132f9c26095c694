package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xDEADBEEF)
	e.Int32(-42)
	e.Uint64(1 << 40)
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xDEADBEEF {
		t.Fatal(v)
	}
	if v := d.Int32(); v != -42 {
		t.Fatal(v)
	}
	if v := d.Uint64(); v != 1<<40 {
		t.Fatal(v)
	}
	if v := d.Bool(); !v {
		t.Fatal("bool true")
	}
	if v := d.Bool(); v {
		t.Fatal("bool false")
	}
	if d.Remaining() != 0 || d.Err() != nil {
		t.Fatal("leftover bytes", d.Err())
	}
}

func TestOpaqueAlignment(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder()
		e.Opaque(bytes.Repeat([]byte{7}, n))
		e.Uint32(0x1234)
		if len(e.Bytes())%4 != 0 {
			t.Fatalf("n=%d: stream not 4-aligned", n)
		}
		d := NewDecoder(e.Bytes())
		got := d.Opaque(0)
		if d.Err() != nil || len(got) != n {
			t.Fatal(n, d.Err())
		}
		if v := d.Uint32(); v != 0x1234 {
			t.Fatalf("n=%d: following word corrupted", n)
		}
	}
}

func TestStringBound(t *testing.T) {
	e := NewEncoder()
	e.String("hello world")
	d := NewDecoder(e.Bytes())
	if d.String(5); d.Err() == nil {
		t.Fatal("bound not enforced")
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if d.Uint32(); !errors.Is(d.Err(), ErrShort) {
		t.Fatal(d.Err())
	}
	// Opaque with a length larger than the remaining buffer.
	e := NewEncoder()
	e.Uint32(1000)
	d = NewDecoder(e.Bytes())
	if d.Opaque(0); !errors.Is(d.Err(), ErrShort) {
		t.Fatal(d.Err())
	}
}

func TestPropertyOpaqueRoundTrip(t *testing.T) {
	f := func(data []byte, s string) bool {
		e := NewEncoder()
		e.Opaque(data)
		e.String(s)
		d := NewDecoder(e.Bytes())
		if got := d.Opaque(0); d.Err() != nil || !bytes.Equal(got, data) {
			return false
		}
		gs := d.String(0)
		return d.Err() == nil && gs == s && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResetAndOpaqueRef covers the two entry points s4rpc's pooled
// frames lean on: an encoder pointed at a caller's buffer appends in
// place and allocates nothing while the capacity lasts, and Opaque
// hands back a view of the decoder's own bytes, padding skipped, within
// its bound.
func TestResetAndOpaqueRef(t *testing.T) {
	buf := make([]byte, 4, 64)
	copy(buf, "HDR:")
	var e Encoder
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset(buf)
		e.Opaque([]byte("hello"))
		e.Uint32(7)
	})
	if allocs != 0 {
		t.Fatalf("encoding into a reused buffer allocated %v times", allocs)
	}
	out := e.Bytes()
	if &out[0] != &buf[0] || string(out[:4]) != "HDR:" || len(out) != 4+4+8+4 {
		t.Fatalf("Reset did not append in place: %q", out)
	}
	e.Reset(out[:4])
	if len(e.Bytes()) != 4 {
		t.Fatal("Reset to a prefix did not truncate")
	}

	d := NewDecoder(out[4:])
	ref := d.Opaque(5)
	if d.Err() != nil || string(ref) != "hello" {
		t.Fatal(string(ref), d.Err())
	}
	if &ref[0] != &out[8] {
		t.Fatal("Opaque copied")
	}
	if v := d.Uint32(); d.Err() != nil || v != 7 {
		t.Fatalf("word after the padded opaque: %d %v", v, d.Err())
	}
	if d := NewDecoder(out[4:]); d.Opaque(4) != nil || d.Err() == nil {
		t.Fatal("Opaque ignored its bound")
	}
	if d := NewDecoder([]byte{0, 0, 0, 9, 1, 2}); d.Opaque(0) != nil || !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Opaque past the buffer: %v", d.Err())
	}
}

// TestDecoderLatchesFirstFailure: the first failure is the one Err
// reports, every read after it returns zero and consumes nothing, and
// Fail neither replaces a latched failure nor latches a nil one.
func TestDecoderLatchesFirstFailure(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 1, 2})
	d.Fail(nil)
	if d.Uint32() != 1 || d.Err() != nil {
		t.Fatal("first word misread or Fail(nil) latched")
	}
	if d.Uint64() != 0 || !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("truncated hyper: err %v", d.Err())
	}
	first := d.Err()
	d.Fail(errors.New("later"))
	if d.Uint32() != 0 || d.Bool() || d.Opaque(0) != nil || d.OpaqueFixed(0) != nil || d.String(0) != "" {
		t.Fatal("a read after the failure returned something")
	}
	if d.Err() != first || d.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left: want the first failure kept and nothing left", d.Err(), d.Remaining())
	}
}
