package core

import (
	"container/list"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"s4/internal/types"
)

// imapV1Blob is a genuine version-1 object map (no landmark floor),
// encoded by the last commit that wrote that format for a drive holding
// the partition table and one thrice-written, checkpointed object.
func imapV1Blob(t testing.TB) []byte {
	b, err := hex.DecodeString("504d3453010000001180c0e285e36804011901f8b4aaf8f1c191bf0d020204000000c001c0010000001006" +
		"000000c101c101000000")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bareDrive is the part of a freshly opened drive decodeImap installs
// into.
func bareDrive() *Drive {
	return &Drive{objects: make(map[types.ObjectID]*object), objLRU: list.New()}
}

// untouched reports whether a failed decode left d as bareDrive made it.
func untouched(d *Drive) bool {
	return len(d.objects) == 0 && d.objLRU.Len() == 0 && d.auditBlocks == nil &&
		d.nextOID == 0 && d.window == 0 && d.auditSeq == 0
}

// TestImapRoundTrip: what encodeImapLocked writes, decodeImap installs,
// field for field.
func TestImapRoundTrip(t *testing.T) {
	d := fuzzSeedDrive(t)
	blob := d.encodeImapLocked()
	got := bareDrive()
	if err := got.decodeImap(blob); err != nil {
		t.Fatal(err)
	}
	if got.nextOID != d.nextOID || got.window != d.window || got.auditSeq != d.auditSeq ||
		!reflect.DeepEqual(got.auditBlocks, d.auditBlocks) {
		t.Errorf("drive fields: decoded nextOID=%d window=%d auditSeq=%d audit=%v", got.nextOID, got.window, got.auditSeq, got.auditBlocks)
	}
	if len(got.objects) != len(d.objects) || got.objLRU.Len() != len(d.objects) {
		t.Fatalf("decoded %d objects (%d in the LRU), drive has %d", len(got.objects), got.objLRU.Len(), len(d.objects))
	}
	floors := 0
	for id, w := range d.objects {
		g := got.objects[id]
		if g == nil {
			t.Errorf("object %v missing", id)
			continue
		}
		if g.nextVersion != w.nextVersion || g.inodeRoot != w.inodeRoot || !reflect.DeepEqual(g.cpBlocks, w.cpBlocks) ||
			g.cpVersion != w.cpVersion || g.jhead != w.jhead || g.jtail != w.jtail || g.floorVersion != w.floorVersion ||
			g.floorTime != w.floorTime || g.lmFloor != w.lmFloor || g.pruned != w.pruned {
			t.Errorf("object %v: decoded %+v", id, g)
		}
		if g.lmFloor != 0 {
			floors++
		}
	}
	if floors == 0 {
		t.Error("no landmark floor survived the round trip")
	}
}

// TestImapDecodeRejects: an object map in any format but the current
// one is refused with an error that says which and wraps ErrCorrupt —
// there is no second decoder — and so is every damaged blob; none of
// them installs anything.
func TestImapDecodeRejects(t *testing.T) {
	blob := fuzzSeedDrive(t).encodeImapLocked()
	d := bareDrive()
	err := d.decodeImap(imapV1Blob(t))
	if !errors.Is(err, types.ErrCorrupt) || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "reads 2") {
		t.Errorf("version-1 object map: err %v, want ErrCorrupt naming versions 1 and 2", err)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"bad magic":        append([]byte{blob[0] ^ 1}, blob[1:]...),
		"version 3":        append(append(append([]byte(nil), blob[:4]...), 3), blob[5:]...),
		"trailing garbage": append(append([]byte(nil), blob...), 0xAB),
	}
	for n := 8; n < len(blob); n++ {
		if err := d.decodeImap(blob[:n]); !errors.Is(err, types.ErrCorrupt) || !untouched(d) {
			t.Fatalf("prefix of %d bytes: err %v, drive untouched=%v", n, err, untouched(d))
		}
	}
	for name, b := range cases {
		if err := d.decodeImap(b); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: err %v does not wrap ErrCorrupt", name, err)
		}
		if !untouched(d) {
			t.Fatalf("%s: a refused blob installed state", name)
		}
	}
}

// FuzzImapDecode throws hostile bytes at the object-map decoder: it
// never panics, every refusal wraps ErrCorrupt and installs nothing,
// and whatever it accepts is one LRU entry per object.
func FuzzImapDecode(f *testing.F) {
	seed := fuzzSeedDrive(f).encodeImapLocked()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:9])
	f.Add([]byte{})
	for _, i := range []int{4, 8, len(seed) / 3, len(seed) - 2} {
		b := append([]byte(nil), seed...)
		b[i] ^= 0xFF
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), seed...), 0x01))
	f.Add(imapV1Blob(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := bareDrive()
		if err := d.decodeImap(data); err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if !untouched(d) {
				t.Fatal("a refused blob installed state")
			}
			return
		}
		if d.objLRU.Len() != len(d.objects) {
			t.Fatalf("accepted %d objects with %d LRU entries", len(d.objects), d.objLRU.Len())
		}
	})
}
