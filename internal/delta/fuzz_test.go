package delta

import (
	"bytes"
	"errors"
	"testing"

	"s4/internal/types"
)

// FuzzDeltaRoundTrip checks Encode/Apply identity over arbitrary
// (ref, target) pairs: the delta must always reconstruct the target
// exactly, never error, never panic.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick brown cat jumps over the lazy dog"))
	f.Add([]byte{}, []byte("fresh"))
	f.Add(bytes.Repeat([]byte{0xAB}, 4096), bytes.Repeat([]byte{0xAB}, 4096))
	f.Add(bytes.Repeat([]byte("block"), 900), []byte{})
	f.Fuzz(func(t *testing.T, ref, target []byte) {
		if len(ref) > 1<<16 || len(target) > 1<<16 {
			return
		}
		d := Encode(ref, target)
		got, err := Apply(ref, d)
		if err != nil {
			t.Fatalf("apply of own encoding failed: %v", err)
		}
		if !bytes.Equal(got, target) && !(len(got) == 0 && len(target) == 0) {
			t.Fatalf("round trip reconstructed %d bytes, want %d", len(got), len(target))
		}
	})
}

// FuzzDeltaApplyHostile feeds Apply arbitrary delta bytes: it must
// return data or a typed ErrCorrupt, never panic, and never allocate
// beyond MaxTarget. ApplyInto is held to the same through destinations
// shorter than, as long as and longer than the length the delta
// declares: it agrees with Apply, and what it returns is never ref's
// memory.
func FuzzDeltaApplyHostile(f *testing.F) {
	ref := []byte("reference block content for hostile decoding")
	f.Add(Encode(ref, []byte("reference block content for hostile decoding!!")))
	// Seed the two historical decoder bugs: a copy whose off+n wraps
	// uint64, and a huge declared target length.
	f.Add([]byte{0x08, opCopy, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x05})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x00})
	// A whole-reference copy: the cheapest result would be ref itself.
	f.Add(Encode(ref, ref))
	f.Fuzz(func(t *testing.T, d []byte) {
		out, err := Apply(ref, d)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("apply error not typed ErrCorrupt: %v", err)
			}
		} else if len(out) > MaxTarget {
			t.Fatalf("apply produced %d bytes past MaxTarget", len(out))
		}
		for _, dstLen := range []int{len(out) - 1, len(out), len(out) + 9} {
			if dstLen < 0 {
				continue
			}
			dst := bytes.Repeat([]byte{0xEE}, dstLen)
			refCopy := bytes.Clone(ref)
			got, ierr := ApplyInto(dst, refCopy, d)
			if (ierr == nil) != (err == nil) || ierr != nil && !errors.Is(ierr, types.ErrCorrupt) {
				t.Fatalf("ApplyInto(dst of %d): error %v, Apply's %v", dstLen, ierr, err)
			}
			if ierr != nil {
				continue
			}
			if !bytes.Equal(got, out) {
				t.Fatalf("ApplyInto(dst of %d) reconstructed %d bytes, Apply %d", dstLen, len(got), len(out))
			}
			if len(out) > 0 && (dstLen > 0 && &got[0] == &dst[0]) != (dstLen >= len(out)) {
				t.Fatalf("ApplyInto(dst of %d) for a %d-byte target: wrong choice of destination", dstLen, len(out))
			}
			// Not ref's memory: overwriting the result leaves ref alone.
			for i := range got {
				got[i] ^= 0xFF
			}
			if !bytes.Equal(refCopy, ref) {
				t.Fatalf("ApplyInto(dst of %d) returned its reference's memory", dstLen)
			}
		}
	})
}

// FuzzPackedDecodeHostile feeds the packed-block reader arbitrary
// bytes: every path must fail typed or succeed, never panic.
func FuzzPackedDecodeHostile(f *testing.F) {
	b := NewPackedBuilder(4096)
	newer := bytes.Repeat([]byte("new content "), 300)
	s, ok := EncodeSlot(newer, bytes.Repeat([]byte("old content "), 300), 2048)
	if !ok {
		f.Fatal("seed slot did not encode")
	}
	s.Orig = 12345
	b.Add(s)
	f.Add(b.Finish(), 0)
	f.Add([]byte{0x50, 0x44, 0x34, 0x53, 0xFF}, 3)
	f.Add([]byte{}, 0)
	// Flated slots whose CRC holds and whose DEFLATE stream does not (cut
	// short; not a stream at all): the inflater's errors must come out
	// typed too.
	if !s.Flate {
		f.Fatal("seed slot is not deflated")
	}
	b = NewPackedBuilder(4096)
	b.Add(Slot{Payload: s.Payload[:len(s.Payload)/2], Flate: true})
	b.Add(Slot{Payload: []byte{0xFF, 0xFF, 0xFF, 0xFF}, Flate: true})
	f.Add(b.Finish(), 0)
	f.Add(b.Finish(), 1)
	f.Fuzz(func(t *testing.T, block []byte, slot int) {
		if _, err := OrigAddrs(block); err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("OrigAddrs error not typed: %v", err)
		}
		if _, err := UnpackSlot(block, slot); err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("UnpackSlot error not typed: %v", err)
		}
		if _, err := ApplySlot(nil, block, slot, newer); err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("ApplySlot error not typed: %v", err)
		}
	})
}

// TestPackedRoundTrip exercises the builder/reader pair over several
// slots, including a bit-flip sweep proving a rotted slot fails typed.
func TestPackedRoundTrip(t *testing.T) {
	newer := make([][]byte, 5)
	older := make([][]byte, 5)
	for i := range newer {
		newer[i] = bytes.Repeat([]byte{byte('A' + i)}, 4096)
		older[i] = append([]byte(nil), newer[i]...)
		copy(older[i][i*100:], "previous-generation bytes")
	}
	b := NewPackedBuilder(4096)
	for i := range newer {
		s, ok := EncodeSlot(newer[i], older[i], 2048)
		if !ok {
			t.Fatalf("slot %d did not fit", i)
		}
		s.Orig = uint64(1000 + i)
		if !b.Room(len(s.Payload)) {
			t.Fatalf("no room for slot %d", i)
		}
		b.Add(s)
	}
	blk := b.Finish()
	if len(blk) > 4096 {
		t.Fatalf("packed block overflows: %d bytes", len(blk))
	}
	origs, err := OrigAddrs(blk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range newer {
		if origs[i] != uint64(1000+i) {
			t.Fatalf("slot %d orig %d", i, origs[i])
		}
		got, err := ApplySlot(nil, blk, i, newer[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, older[i]) {
			t.Fatalf("slot %d did not reconstruct the older version", i)
		}
	}
	// Rot every byte in turn; a corrupted slot must fail typed, and a
	// successful decode must still be the exact older content (flips in
	// unused padding or other slots' payloads are allowed to succeed).
	for pos := 0; pos < len(blk); pos += 7 {
		bad := append([]byte(nil), blk...)
		bad[pos] ^= 0x40
		for i := range newer {
			got, err := ApplySlot(nil, bad, i, newer[i])
			if err == nil && !bytes.Equal(got, older[i]) {
				t.Fatalf("flip at %d slot %d materialized garbage", pos, i)
			}
			if err != nil && !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("flip at %d slot %d: untyped error %v", pos, i, err)
			}
		}
	}
}
