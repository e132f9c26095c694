package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Payload classes for the packer's differential test: what a candidate's
// raw delta looks like. The edit replaces one region of a random block,
// so the raw delta is two COPYs and an INSERT of about the region's
// size; text makes the INSERT compressible, noise does not.
var packClasses = []struct {
	size int
	text bool
}{
	{40, false},   // the churn edit, ~48 B of delta
	{290, false},  // ~300 B
	{1500, true},  // ~1.5 KB, compressible
	{1500, false}, // ~1.5 KB, random
	{2500, true},  // over maxLen raw, under it deflated
	{2500, false}, // over maxLen either way: rejected
}

// packCandidate returns a (newer, old) block pair of class c.
func packCandidate(r *rand.Rand, c int) (newer, old []byte) {
	const blockSize = 4096
	newer = make([]byte, blockSize)
	r.Read(newer)
	old = bytes.Clone(newer)
	region := old[r.Intn(blockSize-packClasses[c].size):][:packClasses[c].size]
	if packClasses[c].text {
		phrase := []byte(fmt.Sprintf("superseded record %d; ", r.Intn(1000)))
		for i := range region {
			region[i] = phrase[i%len(phrase)]
		}
	} else {
		r.Read(region)
	}
	return newer, old
}

// refPack is the packing of the encoder that compressed every slot as it
// encoded it: the same greedy fill, over refEncodeSlot's slots.
func refPack(slots []Slot, blockSize int) (blocks [][]byte) {
	b := NewPackedBuilder(blockSize)
	for _, s := range slots {
		if !b.Room(len(s.Payload)) {
			blocks = append(blocks, b.Finish())
			b = NewPackedBuilder(blockSize)
		}
		b.Add(s)
	}
	return append(blocks, b.Finish())
}

// TestPackerMatchesAlwaysDeflate holds the claim that deciding on
// compression in the packer stores history in exactly as many blocks as
// compressing every slot did: over seeded random entries of 1-20
// candidates, EncodeSlot accepts the candidates refEncodeSlot accepts,
// PackSlots produces as many blocks as refPack, an entry that overflows
// one block is stored byte for byte as before, one that does not is
// stored without a DEFLATE stream in it, and every slot decodes.
func TestPackerMatchesAlwaysDeflate(t *testing.T) {
	const blockSize, maxLen = 4096, 2048
	r := rand.New(rand.NewSource(23))
	var oneBlock, overflowed, rejected, deflatedAtOnce int
	for entry := 0; entry < 100; entry++ {
		n := 1 + r.Intn(20)
		// Most entries draw from a few classes only, so that both small
		// entries that fit one block and large ones that do not occur.
		classes := r.Perm(len(packClasses))[:1+r.Intn(len(packClasses))]
		var newers, olds [][]byte
		var got, want []Slot
		for c := 0; c < n; c++ {
			newer, old := packCandidate(r, classes[r.Intn(len(classes))])
			ws, wok := refEncodeSlot(newer, old, maxLen)
			gs, gok := EncodeSlot(newer, old, maxLen)
			if gok != wok {
				t.Fatalf("entry %d candidate %d: EncodeSlot accepted = %v, reference %v", entry, c, gok, wok)
			}
			if !gok {
				rejected++
				continue
			}
			if gs.Flate {
				deflatedAtOnce++
			}
			ws.Orig, gs.Orig = uint64(c), uint64(c)
			newers, olds = append(newers, newer), append(olds, old)
			got, want = append(got, gs), append(want, ws)
		}
		if len(got) == 0 {
			continue
		}
		raw := packedHdr + len(got)*slotDirSize
		for _, s := range got {
			raw += len(s.Payload)
		}
		blocks, at := PackSlots(got, blockSize)
		wantBlocks := refPack(want, blockSize)
		if len(blocks) != len(wantBlocks) {
			t.Fatalf("entry %d (%d slots, %d B raw): %d packed blocks, always-DEFLATE packs %d",
				entry, len(got), raw, len(blocks), len(wantBlocks))
		}
		if raw <= blockSize {
			oneBlock++
			if len(blocks) != 1 {
				t.Fatalf("entry %d: %d B of raw slots packed into %d blocks", entry, raw, len(blocks))
			}
		} else {
			overflowed++
			for b := range blocks {
				if !bytes.Equal(blocks[b], wantBlocks[b]) {
					t.Fatalf("entry %d block %d differs from the always-DEFLATE image at byte %d",
						entry, b, firstDiff(blocks[b], wantBlocks[b]))
				}
			}
		}
		for i := range got {
			if raw <= blockSize && got[i].Flate && len(refEncode(newers[i], olds[i])) <= maxLen {
				t.Fatalf("entry %d slot %d was deflated though the entry fits one block raw", entry, i)
			}
			s, err := UnpackSlot(blocks[at[i].Block], at[i].Slot)
			if err != nil {
				t.Fatalf("entry %d slot %d: %v", entry, i, err)
			}
			if s.Flate != got[i].Flate || !bytes.Equal(s.Payload, got[i].Payload) || s.Orig != got[i].Orig {
				t.Fatalf("entry %d slot %d: the block does not hold the slot PackSlots reported", entry, i)
			}
			back, err := ApplySlot(nil, blocks[at[i].Block], at[i].Slot, newers[i])
			if err != nil || !bytes.Equal(back, olds[i]) {
				t.Fatalf("entry %d slot %d does not decode to the old block (err %v)", entry, i, err)
			}
		}
	}
	t.Logf("%d entries fit one block raw, %d overflowed; %d candidates rejected, %d deflated to be accepted",
		oneBlock, overflowed, rejected, deflatedAtOnce)
	if oneBlock == 0 || overflowed == 0 || rejected == 0 || deflatedAtOnce == 0 {
		t.Error("the entries did not cover every case of the rule")
	}
}

// TestDecodeAlwaysDeflatedBlock pins what an image written before the
// packer decided holds: a packed block whose slots the reference encoder
// deflated one by one decodes to the same bytes.
func TestDecodeAlwaysDeflatedBlock(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	b := NewPackedBuilder(4096)
	var newers, olds [][]byte
	for i := 0; i < 8; i++ {
		newer, old := packCandidate(r, 2)
		s, ok := refEncodeSlot(newer, old, 2048)
		if !ok || !s.Flate {
			t.Fatalf("slot %d: reference slot ok %v, flate %v; want a deflated slot", i, ok, s.Flate)
		}
		if !b.Room(len(s.Payload)) {
			t.Fatalf("slot %d does not fit", i)
		}
		b.Add(s)
		newers, olds = append(newers, newer), append(olds, old)
	}
	blk := b.Finish()
	for i := range olds {
		back, err := ApplySlot(nil, blk, i, newers[i])
		if err != nil || !bytes.Equal(back, olds[i]) {
			t.Fatalf("slot %d does not decode to the old block (err %v)", i, err)
		}
	}
}
