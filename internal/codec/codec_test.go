package codec

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"s4/internal/types"
)

// TestReaderLatchesFirstFailure: the first failure is the one reported,
// wraps ErrCorrupt under the reader's name, and every read after it
// returns zero and consumes nothing.
func TestReaderLatchesFirstFailure(t *testing.T) {
	r := NewReader("test: thing", []byte{0x80})
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("truncated varint read %d", v)
	}
	first := r.Err()
	if !errors.Is(first, types.ErrCorrupt) || !strings.HasPrefix(first.Error(), "test: thing: bad varint") {
		t.Fatalf("err %v, want ErrCorrupt prefixed with the reader's name", first)
	}
	r.Fail("later")
	if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.Varint() != 0 || r.Bytes(1) != nil || r.Blob() != nil || r.Count(0, 1, 0) != 0 {
		t.Fatal("a read after the failure returned something")
	}
	if r.Err() != first || r.Done() != first || r.Rest() != nil {
		t.Fatalf("err %v, Done %v, rest %v: want the first failure kept and nothing left", r.Err(), r.Done(), r.Rest())
	}
}

// TestReaderReadsLittleEndian reads every fixed width and a varint back
// out of what the standard encoders wrote.
func TestReaderReadsLittleEndian(t *testing.T) {
	var b []byte
	b = append(b, 0xAB)
	b = binary.LittleEndian.AppendUint16(b, 0x1234)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 1<<60|5)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -300)
	b = append(b, "xyz"...)
	r := NewReader("test", b)
	if r.U8() != 0xAB || r.U16() != 0x1234 || r.U32() != 0xDEADBEEF || r.U64() != 1<<60|5 || r.Uvarint() != 300 || r.Varint() != -300 {
		t.Fatal("fixed-width or varint read wrong")
	}
	if got := r.Bytes(3); string(got) != "xyz" || &got[0] != &b[len(b)-3] {
		t.Fatalf("Bytes read %q, want an alias of the input", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestCountRefusesWhatTheBytesCannotHold: Count refuses a count over its
// max and one the remaining bytes cannot hold at minElem bytes each.
func TestCountRefusesWhatTheBytesCannotHold(t *testing.T) {
	data := make([]byte, 10)
	for _, c := range []struct {
		n            uint64
		minElem, max int
		ok           bool
	}{
		{5, 2, 0, true},
		{6, 2, 0, false}, // 12 bytes wanted, 10 left
		{5, 2, 4, false}, // over max
		{4, 2, 4, true},  // at max
		{1 << 63, 1, 0, false},
		{0, 8, 0, true},
	} {
		r := NewReader("test", data)
		got := r.Count(c.n, c.minElem, c.max)
		if c.ok != (r.Err() == nil) || c.ok && got != int(c.n) || !c.ok && (got != 0 || !errors.Is(r.Err(), types.ErrCorrupt)) {
			t.Errorf("Count(%d, %d, %d) = %d, err %v; want ok=%v", c.n, c.minElem, c.max, got, r.Err(), c.ok)
		}
	}
}

// TestDoneRefusesTrailingBytes: Done fails on anything left unread.
func TestDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader("test", []byte{1, 2})
	r.U8()
	if err := r.Done(); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("Done with a byte left: %v", err)
	}
}

// TestBlob: a blob is a private copy of its bytes, nil when empty, and
// refused when its length runs past the input.
func TestBlob(t *testing.T) {
	src := append(binary.AppendUvarint(nil, 0), 3, 'a', 'b', 'c')
	r := NewReader("test", src)
	if b := r.Blob(); b != nil {
		t.Fatalf("empty blob %v, want nil", b)
	}
	b := r.Blob()
	if string(b) != "abc" || &b[0] == &src[2] {
		t.Fatalf("blob %q, want a private copy of abc", b)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	r = NewReader("test", []byte{4, 'a'})
	if b := r.Blob(); b != nil || !errors.Is(r.Err(), types.ErrCorrupt) {
		t.Fatalf("truncated blob %q, err %v", b, r.Err())
	}
}
