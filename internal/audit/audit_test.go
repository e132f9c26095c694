package audit

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"s4/internal/types"
)

func sampleRecord() Record {
	return Record{
		Seq: 42, Time: 123456789, Client: 7, User: 1001,
		Op: types.OpWrite, Obj: 55, Offset: 8192, Length: 4096,
		Arg: "payload-name", OK: true, Errno: 0,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	got, rest, err := Decode(r.Encode(nil))
	if err != nil || len(rest) != 0 {
		t.Fatal(err, len(rest))
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v want %+v", got, r)
	}
}

func TestRecordFailureRoundTrip(t *testing.T) {
	r := Record{Seq: 1, Op: types.OpDelete, Obj: 9, OK: false, Errno: 13}
	got, _, err := Decode(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Errno != 13 {
		t.Fatalf("failure flags lost: %+v", got)
	}
}

func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(seq uint64, ts int64, client, user uint32, op uint8, obj uint64, off, ln uint64, arg string, ok bool, errno uint8) bool {
		if len(arg) > 1000 {
			arg = arg[:1000]
		}
		r := Record{
			Seq: seq, Time: types.Timestamp(ts), Client: types.ClientID(client),
			User: types.UserID(user), Op: types.Op(op), Obj: types.ObjectID(obj),
			Offset: off, Length: ln, Arg: arg, OK: ok, Errno: errno,
		}
		// Timestamps are encoded as uvarints; negative values are not
		// produced by the drive, so normalize.
		if r.Time < 0 {
			r.Time = -r.Time
		}
		enc := (&r).Encode(nil)
		got, rest, err := Decode(enc)
		return err == nil && len(rest) == 0 && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	r := sampleRecord()
	enc := r.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	var recs []Record
	for i := 0; i < 50; i++ {
		r := sampleRecord()
		r.Seq = uint64(i)
		r.Arg = strings.Repeat("x", i%20)
		recs = append(recs, r)
	}
	blk, err := EncodeBlock(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("block round trip mismatch")
	}
}

func TestBlockLimits(t *testing.T) {
	if _, err := EncodeBlock(nil); err == nil {
		t.Fatal("empty block accepted")
	}
	big := sampleRecord()
	big.Arg = strings.Repeat("a", 3000)
	if _, err := EncodeBlock([]Record{big, big}); err == nil {
		t.Fatal("overflowing block accepted")
	}
}

func TestDecodeBlockRejectsCorrupt(t *testing.T) {
	if _, err := DecodeBlock(make([]byte, 4)); err == nil {
		t.Fatal("short block accepted")
	}
	blk, _ := EncodeBlock([]Record{sampleRecord()})
	blk[0] ^= 0x55
	if _, err := DecodeBlock(blk); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRecordsPackDensely(t *testing.T) {
	// §5.1.4: audit overhead is small because many records fit a block.
	r := Record{Seq: 1000, Time: 1 << 40, Client: 3, User: 500, Op: types.OpRead, Obj: 1 << 20, Offset: 1 << 30, Length: 4096, Arg: "dir0/file17"}
	perBlock := BlockCapacity / len(r.Encode(nil))
	if perBlock < 80 {
		t.Fatalf("only %d records per block; encoding too fat", perBlock)
	}
}
