package audit

import (
	"encoding/binary"
	"reflect"
	"testing"

	"s4/internal/types"
)

func seedRecords() []Record {
	return []Record{
		{Seq: 1, Time: 100, Client: 2, User: 7, Op: types.OpWrite, Obj: 42,
			Offset: 4096, Length: 8192, Arg: "part0", Raw: []byte{1, 2, 3}, OK: true},
		{Seq: 2, Time: 101, Client: 2, User: 7, Op: types.OpRead, Obj: 42,
			OK: false, Errno: 5},
	}
}

// FuzzDecode feeds arbitrary bytes to the record decoder: no panics,
// accepted records must survive an encode/decode round trip, and the
// arithmetic EncodedSize must be the length Encode writes.
func FuzzDecode(f *testing.F) {
	for _, r := range seedRecords() {
		f.Add(r.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, _, err := Decode(data)
		if err != nil {
			return
		}
		enc := r.Encode(nil)
		if r.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize %d, Encode wrote %d bytes", r.EncodedSize(), len(enc))
		}
		again, rest, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest))
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed record:\n  %+v\n  %+v", r, again)
		}
	})
}

// FuzzDecodeBlock exercises the block framing — recovery hands it raw
// log blocks, so it must reject anything malformed without panicking.
func FuzzDecodeBlock(f *testing.F) {
	if blk, err := EncodeBlock(seedRecords()); err == nil {
		f.Add(blk)
		// A block whose used field lies (smaller than the header, larger
		// than the data) — regression seeds for the bounds check.
		bad := append([]byte(nil), blk...)
		binary.LittleEndian.PutUint16(bad[6:], 3)
		f.Add(bad)
		bad2 := append([]byte(nil), blk...)
		binary.LittleEndian.PutUint16(bad2[6:], 0xFFFF)
		f.Add(bad2)
	}
	f.Add(make([]byte, 4096))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeBlock(data)
		if err != nil || len(recs) == 0 {
			return
		}
		for i := range recs {
			if n := len(recs[i].Encode(nil)); recs[i].EncodedSize() != n {
				t.Fatalf("record %d: EncodedSize %d, Encode wrote %d bytes", i, recs[i].EncodedSize(), n)
			}
		}
		blk, err := EncodeBlock(recs)
		if err != nil {
			return // decoded payload may exceed one block when re-packed
		}
		again, err := DecodeBlock(blk)
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed records: %d -> %d", len(recs), len(again))
		}
	})
}
