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
	if v, _ := d.Uint32(); v != 0xDEADBEEF {
		t.Fatal(v)
	}
	if v, _ := d.Int32(); v != -42 {
		t.Fatal(v)
	}
	if v, _ := d.Uint64(); v != 1<<40 {
		t.Fatal(v)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := d.Bool(); v {
		t.Fatal("bool false")
	}
	if d.Remaining() != 0 {
		t.Fatal("leftover bytes")
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
		got, err := d.Opaque(0)
		if err != nil || len(got) != n {
			t.Fatal(n, err)
		}
		if v, _ := d.Uint32(); v != 0x1234 {
			t.Fatalf("n=%d: following word corrupted", n)
		}
	}
}

func TestStringBound(t *testing.T) {
	e := NewEncoder()
	e.String("hello world")
	d := NewDecoder(e.Bytes())
	if _, err := d.String(5); err == nil {
		t.Fatal("bound not enforced")
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); !errors.Is(err, ErrShort) {
		t.Fatal(err)
	}
	// Opaque with a length larger than the remaining buffer.
	e := NewEncoder()
	e.Uint32(1000)
	d = NewDecoder(e.Bytes())
	if _, err := d.Opaque(0); !errors.Is(err, ErrShort) {
		t.Fatal(err)
	}
}

func TestPropertyOpaqueRoundTrip(t *testing.T) {
	f := func(data []byte, s string) bool {
		e := NewEncoder()
		e.Opaque(data)
		e.String(s)
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque(0)
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		gs, err := d.String(0)
		return err == nil && gs == s && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResetAndOpaqueRef covers the two entry points s4rpc's pooled
// frames lean on: an encoder pointed at a caller's buffer appends in
// place and allocates nothing while the capacity lasts, and OpaqueRef
// hands back the decoder's own bytes, padding skipped, bounds as Opaque.
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
	ref, err := d.OpaqueRef(5)
	if err != nil || string(ref) != "hello" {
		t.Fatal(string(ref), err)
	}
	if &ref[0] != &out[8] {
		t.Fatal("OpaqueRef copied")
	}
	if v, err := d.Uint32(); err != nil || v != 7 {
		t.Fatalf("word after the padded opaque: %d %v", v, err)
	}
	if _, err := NewDecoder(out[4:]).OpaqueRef(4); err == nil {
		t.Fatal("OpaqueRef ignored its bound")
	}
	if _, err := NewDecoder([]byte{0, 0, 0, 9, 1, 2}).OpaqueRef(0); !errors.Is(err, ErrShort) {
		t.Fatalf("OpaqueRef past the buffer: %v", err)
	}
}
