package xdr

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip encodes fuzz-chosen values and checks the decoder
// returns them exactly, consuming the whole stream.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0), int32(-1), uint64(1<<40), true, []byte("abc"), "name")
	f.Add(uint32(0xFFFFFFFF), int32(0), uint64(0), false, []byte{}, "")
	f.Fuzz(func(t *testing.T, a uint32, b int32, c uint64, ok bool, blob []byte, s string) {
		e := NewEncoder()
		e.Uint32(a)
		e.Int32(b)
		e.Uint64(c)
		e.Bool(ok)
		e.Opaque(blob)
		e.String(s)
		e.OpaqueFixed(blob)

		d := NewDecoder(e.Bytes())
		if v := d.Uint32(); d.Err() != nil || v != a {
			t.Fatalf("uint32: %v %v", v, d.Err())
		}
		if v := d.Int32(); d.Err() != nil || v != b {
			t.Fatalf("int32: %v %v", v, d.Err())
		}
		if v := d.Uint64(); d.Err() != nil || v != c {
			t.Fatalf("uint64: %v %v", v, d.Err())
		}
		if v := d.Bool(); d.Err() != nil || v != ok {
			t.Fatalf("bool: %v %v", v, d.Err())
		}
		if v := d.Opaque(len(blob)); d.Err() != nil || !bytes.Equal(v, blob) {
			t.Fatalf("opaque: %q %v", v, d.Err())
		}
		if v := d.String(0); d.Err() != nil || v != s {
			t.Fatalf("string: %q %v", v, d.Err())
		}
		if v := d.OpaqueFixed(len(blob)); d.Err() != nil || !bytes.Equal(v, blob) {
			t.Fatalf("opaque fixed: %q %v", v, d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d bytes left over", d.Remaining())
		}
	})
}

// FuzzDecoder runs the decoder over arbitrary bytes the way an RPC
// unmarshaller would: it must latch a failure on truncation, never
// panic, and never allocate beyond the input (an opaque is a view of
// the buffer, so a lying length prefix cannot OOM).
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for d.Remaining() > 0 {
			before := d.Remaining()
			// A fixed op rotation touching every decode path; each pass
			// either consumes bytes or errors, so this terminates.
			if d.Uint32(); d.Err() != nil {
				return
			}
			if d.Opaque(1 << 20); d.Err() != nil {
				return
			}
			if d.Uint64(); d.Err() != nil {
				return
			}
			if d.String(256); d.Err() != nil {
				return
			}
			if d.Bool(); d.Err() != nil {
				return
			}
			if d.OpaqueFixed(3); d.Err() != nil {
				return
			}
			if d.Remaining() >= before {
				t.Fatal("decoder made no progress")
			}
		}
	})
}
