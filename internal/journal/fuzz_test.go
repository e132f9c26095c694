package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"s4/internal/seglog"
	"s4/internal/types"
)

// fuzz seeds: one entry of each type, plus a full sector.
func seedEntries() []*Entry {
	return []*Entry{
		{Type: EntCreate, Version: 1, Time: 10, User: 7, Client: 2},
		{Type: EntWrite, Version: 2, Time: 11, User: 7, Client: 2,
			FirstBlock: 3, Old: []seglog.BlockAddr{0, 9}, New: []seglog.BlockAddr{12, 13}, OldSize: 100, NewSize: 8192},
		{Type: EntTruncate, Version: 3, Time: 12, User: 7, Client: 2,
			FirstBlock: 1, Old: []seglog.BlockAddr{12}, OldSize: 8192, NewSize: 4096},
		{Type: EntSetAttr, Version: 4, Time: 13, User: 7, Client: 2, OldAttr: []byte("a"), NewAttr: []byte("bb")},
		{Type: EntSetACL, Version: 5, Time: 14, User: 7, Client: 2, ACLIndex: 1,
			OldACL: types.ACLEntry{User: 1, Perm: 1}, NewACL: types.ACLEntry{User: 2, Perm: 7}},
		{Type: EntDelete, Version: 6, Time: 15, User: 7, Client: 2, OldSize: 4096},
		{Type: EntCheckpoint, Version: 3, Time: 16, User: 7, Client: 2, Image: seedImage},
	}
}

// seedImage is a genuine inode image as the drive writes it inline in a
// landmark's EntCheckpoint since format version 6: object 16 at version
// 3, 8 KB in two blocks, one ACL entry.
var seedImage, _ = hex.DecodeString("444e345310000000000000000300000000000000002000000000000080ad1acd0f467e0d" +
	"c0ef29cd0f467e0d000000000000000000000001640000001f000000000002000000008201018301")

// maskedEntries are writes that encode with the v2 wire tag: a delta
// mask, a skip mask with its dropped addresses, and both.
func maskedEntries() []*Entry {
	return []*Entry{
		{Type: EntWrite, Version: 8, Time: 17, User: 7, Client: 2, FirstBlock: 2,
			Old: []seglog.BlockAddr{77*DeltaSlotsPerBlock + 1, 9}, New: []seglog.BlockAddr{14, 15},
			OldSize: 8192, NewSize: 16384, DeltaMask: 1},
		{Type: EntWrite, Version: 9, Time: 18, User: 7, Client: 2, FirstBlock: 2,
			Old: []seglog.BlockAddr{0, 0, 21}, New: []seglog.BlockAddr{16, 17, 18},
			OldSize: 16384, NewSize: 20480, SkipMask: 3, Dropped: []seglog.BlockAddr{14, 15}},
		{Type: EntWrite, Version: 10, Time: 19, User: 7, Client: 2, FirstBlock: 2,
			Old: []seglog.BlockAddr{78 * DeltaSlotsPerBlock, 0}, New: []seglog.BlockAddr{19, 20},
			OldSize: 20480, NewSize: 20480, DeltaMask: 1, SkipMask: 2, Dropped: []seglog.BlockAddr{17}},
	}
}

// FuzzDecode feeds arbitrary bytes to the entry decoder: it must never
// panic, it must accept exactly what the reference decoder accepts and
// decode it to the same entry over the same bytes, and anything it
// accepts must re-encode to a form it decodes to the same entry.
func FuzzDecode(f *testing.F) {
	for _, e := range append(seedEntries(), maskedEntries()...) {
		f.Add(e.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := Decode(data)
		want, wantRest, wantErr := refDecode(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Decode: %v, reference: %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("Decode failed outside ErrCorrupt: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(e, want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("Decode differs from the reference:\n  %+v (%d left)\n  %+v (%d left)", e, len(rest), want, len(wantRest))
		}
		again, rest, err := Decode(e.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode of accepted entry failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest))
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip changed entry:\n  %+v\n  %+v", e, again)
		}
	})
}

// refSectorEntries decodes the entries of a sector image one by one with
// the reference decoder, returning them and the bytes they and the
// header span.
func refSectorEntries(data []byte) ([]Entry, int, error) {
	var entries []Entry
	rest := data[SectorHeaderSize:]
	for n := binary.LittleEndian.Uint16(data[20:]); n > 0; n-- {
		e, r, err := refDecode(rest)
		if err != nil {
			return nil, 0, err
		}
		entries, rest = append(entries, e), r
	}
	return entries, len(data) - len(rest), nil
}

// checkSectorAgainstReference holds DecodeSector to the reference on one
// input that carries the sector magic. The input's checksum is re-sealed
// over whatever the reference consumed, so the comparison reaches the
// entries instead of stopping at a checksum no fuzzer guesses.
func checkSectorAgainstReference(t *testing.T, data []byte) {
	if len(data) < SectorHeaderSize || binary.LittleEndian.Uint32(data) != sectorMagic2 {
		return
	}
	sealed := append([]byte(nil), data...)
	want, consumed, wantErr := refSectorEntries(sealed)
	if wantErr == nil {
		clear(sealed[22:26])
		binary.LittleEndian.PutUint32(sealed[22:], crc32.ChecksumIEEE(sealed[:consumed]))
	}
	_, _, got, ok, err := DecodeSector(sealed)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeSector: %v, entry-by-entry reference: %v", err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("DecodeSector failed outside ErrCorrupt: %v", err)
		}
		return
	}
	if !ok || len(got) != len(want) {
		t.Fatalf("DecodeSector: ok=%v with %d entries, reference %d", ok, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("entry %d differs from the reference:\n  %+v\n  %+v", i, got[i], want[i])
		}
	}
}

// FuzzDecodeSector does the same at sector granularity — this is what
// recovery feeds raw disk sectors to — and there holds the in-place
// decoder to the reference applied entry by entry, and FitSector over
// an accepted sector's entries to EncodeSector: it packs all of them
// exactly when EncodeSector accepts them, into the same bytes.
func FuzzDecodeSector(f *testing.F) {
	if sec, err := EncodeSector(42, 7, seedEntries()); err == nil {
		f.Add(sec)
	}
	if sec, err := EncodeSector(43, 8, maskedEntries()); err == nil {
		f.Add(sec)
	}
	f.Add(fullSectorOfWrites(f))
	f.Add(make([]byte, SectorSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSectorAgainstReference(t, data)
		obj, prev, entries, ok, err := DecodeSector(data)
		if err != nil || !ok {
			return
		}
		ptrs := make([]*Entry, len(entries))
		for i := range entries {
			ptrs[i] = &entries[i]
		}
		if len(ptrs) == 0 {
			return // re-encode rejects these by design
		}
		sec, err := EncodeSector(obj, prev, ptrs)
		fit, n := FitSector(obj, prev, ptrs)
		if (err == nil) != (n == len(ptrs)) {
			t.Fatalf("EncodeSector: %v, but FitSector packed %d of %d entries", err, n, len(ptrs))
		}
		if err != nil {
			return // accepted input may exceed SectorSize when re-packed
		}
		if !bytes.Equal(fit, sec) {
			t.Fatal("FitSector of every entry differs from EncodeSector")
		}
		obj2, prev2, entries2, ok2, err := DecodeSector(sec)
		if err != nil || !ok2 {
			t.Fatalf("re-decode of accepted sector failed: ok=%v err=%v", ok2, err)
		}
		if obj2 != obj || prev2 != prev || !reflect.DeepEqual(entries, entries2) {
			t.Fatalf("round trip changed sector: obj %v->%v prev %v->%v", obj, obj2, prev, prev2)
		}
	})
}
