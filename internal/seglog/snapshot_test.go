package seglog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"s4/internal/disk"
	"s4/internal/types"
)

// A partial flush writes its summary snapshot's header and entries only,
// the sectors up to its size, and leaves the rest of the slot as it was
// (DESIGN.md §15.1). These tests hold the format to what makes that safe.

// TestTornSnapshotFallsBack tears a partial flush's snapshot write at
// every sector prefix. The segment has two synced snapshots and the torn
// one describes 52 blocks, four sectors of header and entries: the
// blocks' object ids, keys and times are wide enough that each entry
// takes 33 bytes. Every
// image must open to the previous snapshot: the blocks the torn flush
// carried were never acknowledged and are gone, every acknowledged block
// reads back (verified against the summary's checksum), and the chain
// walk does not fall back to probing. It runs over a never-written
// segment, where the slot's stale bytes are zeros, and over a reused
// one, where the slot holds the previous life's snapshot of the same
// count: a tear keeps that header intact until its first sector lands,
// and the old snapshot, older than the new life's open record, must not
// answer. With hosted, the torn sync's last block is short, so its
// snapshot starts right after that block's Len, in the block's own tail
// (flushLocked), where the reused segment's previous life left its own.
func TestTornSnapshotFallsBack(t *testing.T) {
	for _, c := range []struct{ reused, hosted bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		reused, hosted := c.reused, c.hosted
		name := fmt.Sprintf("reused=%v", reused)
		if hosted {
			name = "hosted," + name
		}
		t.Run(name, func(t *testing.T) {
			l, dev := newFaultLog(t, 64)
			rnd := rand.New(rand.NewSource(1))
			type acked struct {
				addr BlockAddr
				data []byte
			}
			// life stages and syncs 10, 10 and 30 blocks of obj into the
			// open segment, and returns what the first two syncs acked.
			life := func(obj types.ObjectID) []acked {
				var out []acked
				for i, n := range []int{10, 10, 30} {
					if i == 2 {
						dev.StartRecording()
					}
					for j := 0; j < n; j++ {
						data := make([]byte, BlockSize)
						if hosted && i == 2 && j == n-1 {
							data = data[:700] // two sectors: the snapshot follows at the third
						}
						rnd.Read(data)
						k := len(out) + j
						a, err := l.Append(KindData, obj<<56, uint64(k)|1<<56, types.Timestamp(1+k)<<56, data)
						if err != nil {
							t.Fatal(err)
						}
						if i < 2 {
							out = append(out, acked{a, data})
						}
					}
					mustSync(t, l)
				}
				return out
			}
			seg := int64(0)
			if reused {
				life(1)
				appendN(t, l, 1, 100, l.Room()) // seal the first life
				if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
					t.Fatal(err)
				}
				if err := l.FreeSegment(0); err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 3, 300, l.Room()) // fill segment 1: the next append opens its successor
			}
			want := life(2)
			if got := l.SegOf(want[0].addr); got != seg {
				t.Fatalf("the life under test opened segment %d, want %d", got, seg)
			}
			k := dev.Writes() - 1
			w := dev.Record(k)
			at := (l.segBase(seg) + 1 + 52) * sectorsPerBlock // 10 + pad + 10 + pad + 30 blocks before it
			if hosted {
				at -= sectorsPerBlock - 2
			}
			if w.Sector != at || w.Sectors() != 4 {
				t.Fatalf("last write of the sync: sectors %d+%d, want the 52-entry snapshot at %d+4", w.Sector, w.Sectors(), at)
			}
			if reused {
				// The hard case is there: the slot holds a valid snapshot of
				// the previous life, of the count the torn one has.
				img, err := dev.TornImageAt(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				blk := make([]byte, BlockSize)
				if err := img.ReadSectors(at, blk); err != nil {
					t.Fatal(err)
				}
				if h, ok := checkSummary(blk); !ok || h.count != 52 {
					t.Fatalf("slot before the tear: ok=%v count=%d, want the previous life's 52-entry snapshot", ok, h.count)
				}
			}
			// The newest durable snapshot before the torn sync: 10 + pad + 10.
			pre, err := dev.ImageAt(k)
			if err != nil {
				t.Fatal(err)
			}
			sumBefore, ok, err := reopen(t, pre).ReadSummary(seg)
			if err != nil || !ok || len(sumBefore.Entries) != 21 {
				t.Fatalf("before the torn sync: %d entries ok=%v err=%v, want 21", len(sumBefore.Entries), ok, err)
			}
			buf := make([]byte, BlockSize)
			for keep := 0; keep <= w.Sectors(); keep++ {
				img, err := dev.TornImageAt(k, keep)
				if keep == w.Sectors() {
					img, err = dev.ImageAt(k + 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				if why := walkWhy(t, img); why != "" {
					t.Fatalf("keep=%d: walk fell back: %s", keep, why)
				}
				lr := reopen(t, img)
				hits := resumeHits(t, lr)
				sum, ok, err := lr.ReadSummary(seg)
				if err != nil || !ok {
					t.Fatalf("keep=%d: no summary (ok=%v err=%v)", keep, ok, err)
				}
				wantN, wantSeq := len(sumBefore.Entries), sumBefore.Seq
				if keep == w.Sectors() {
					wantN, wantSeq = 52, sumBefore.Seq+1
				}
				if len(sum.Entries) != wantN || sum.Seq != wantSeq || hits[seg] != wantSeq {
					t.Fatalf("keep=%d: summary of %d entries at seq %d, scan hit seq %d; want %d at seq %d",
						keep, len(sum.Entries), sum.Seq, hits[seg], wantN, wantSeq)
				}
				for _, a := range want {
					if err := lr.Read(a.addr, buf); err != nil {
						t.Fatalf("keep=%d: acked block %d: %v", keep, a.addr, err)
					}
					if !bytes.Equal(buf, a.data) {
						t.Fatalf("keep=%d: acked block %d does not read back", keep, a.addr)
					}
				}
			}
		})
	}
}

// TestSummaryCRCCoversHeaderAndEntries is the property FuzzSegSummaryChecksums
// promises, checked at every byte: in a genuine snapshot of 52 entries a
// flipped byte of the header or the entries — anything in [0,16) or
// [20,size) — is rejected, and junk anywhere in the slack after its size
// decodes to the identical summary.
func TestSummaryCRCCoversHeaderAndEntries(t *testing.T) {
	l, _ := newFaultLog(t, 64)
	appendN(t, l, 1, 0, 52)
	sb := make([]byte, BlockSize)
	l.mu.Lock()
	n := l.encodeSummaryLocked(sb, 9, false)
	l.mu.Unlock()
	want, ok, _ := decodeSummary(sb)
	if !ok || len(want.Entries) != 52 {
		t.Fatalf("genuine snapshot: ok=%v, %d entries", ok, len(want.Entries))
	}
	for i := 0; i < n; i++ {
		if i >= 16 && i < 20 {
			continue // the CRC itself
		}
		bad := append([]byte(nil), sb...)
		bad[i] ^= 0x01
		if _, ok, _ := decodeSummary(bad); ok {
			t.Fatalf("byte %d of %d flipped: the summary still decodes", i, n)
		}
	}
	rnd := rand.New(rand.NewSource(1))
	junk := append([]byte(nil), sb...)
	rnd.Read(junk[n:])
	got, ok, _ := decodeSummary(junk)
	if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("junk past byte %d: ok=%v, decodes differently", n, ok)
	}
	binary.LittleEndian.PutUint32(junk[36:], uint32(n+8)) // a longer size: the junk is now covered
	if _, ok, _ := decodeSummary(junk); ok {
		t.Fatal("a size reaching into the junk still decodes")
	}
}

// TestSnapshotFollowsTrimmedRun holds a partial flush's snapshot to where
// it lands (flushLocked). After a run ending at a short data block, the
// snapshot starts at the sector right after that block's Len, so the
// run and the snapshot are one sequential stretch of the device. After a
// short journal block, which later syncs grow, and after a flush whose
// only run is a rewrite earlier in the segment (the last used block is
// the previous snapshot's pad), it starts the slot after the last used
// block. While a block's tail holds the newest durable snapshot,
// RewriteRange refuses to grow the block into it, and grows it again
// once a newer snapshot lies elsewhere. After every sync, a fresh open
// of the device finds the newest snapshot and reads every block back.
func TestSnapshotFollowsTrimmedRun(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	dev.StartRecording()
	base := l.segBase(0) * sectorsPerBlock
	staged := map[BlockAddr][]byte{}
	add := func(kind Kind, data []byte) BlockAddr {
		t.Helper()
		a, err := l.Append(kind, 1, uint64(len(staged)), types.Timestamp(len(staged)+1), data)
		if err != nil {
			t.Fatal(err)
		}
		staged[a] = data
		return a
	}
	rewrite := func(a BlockAddr, off int, data []byte) bool {
		t.Helper()
		ok, err := l.RewriteRange(a, off, data)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			b := staged[a]
			if end := off + len(data); end > len(b) {
				b = append(b, make([]byte, end-len(b))...)
			}
			copy(b[off:], data)
			staged[a] = b
		}
		return ok
	}
	// syncAt syncs and checks the snapshot's write began at sector at of
	// the segment, and that a fresh open finds it and reads back every
	// staged block.
	syncAt := func(what string, at int64) {
		t.Helper()
		n := dev.Writes()
		mustSync(t, l)
		w := dev.Record(dev.Writes() - 1)
		if dev.Writes() <= n || w.Sector != base+at {
			t.Fatalf("%s: snapshot written at sector %d of the segment, want %d", what, w.Sector-base, at)
		}
		img, err := dev.ImageAt(dev.Writes())
		if err != nil {
			t.Fatal(err)
		}
		lr := reopen(t, img)
		sum, ok, err := lr.ReadSummary(0)
		if err != nil || !ok || len(sum.Entries) != len(l.entries)-1 {
			t.Fatalf("%s: a fresh open finds %d entries (ok=%v, %v), want the %d the snapshot describes", what, len(sum.Entries), ok, err, len(l.entries)-1)
		}
		buf := make([]byte, BlockSize)
		for a, data := range staged {
			if err := lr.Read(a, buf); err != nil {
				t.Fatalf("%s: block %d: %v", what, a, err)
			}
			if want := append(bytes.Clone(data), make([]byte, BlockSize-len(data))...); !bytes.Equal(buf, want) {
				t.Fatalf("%s: block %d does not read back", what, a)
			}
		}
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	add(KindData, fill(BlockSize, 1))
	host := add(KindData, fill(700, 2))
	syncAt("short data block", 2*sectorsPerBlock+2) // the record, block 1, two sectors of block 2
	if w := dev.Record(dev.Writes() - 2); w.Sector+int64(w.Sectors()) != base+2*sectorsPerBlock+2 {
		t.Fatalf("the run ends at sector %d of the segment, not where the snapshot starts", w.Sector+int64(w.Sectors())-base)
	}
	if rewrite(host, 1000, fill(100, 3)) {
		t.Fatal("a rewrite grew the block whose tail holds the newest snapshot")
	}
	if !rewrite(host, 100, fill(600, 4)) {
		t.Fatal("a rewrite below the snapshot, within the block's last sector, was refused")
	}
	j := add(KindJournal, fill(disk.SectorSize, 5)) // slot 3, after the pad
	syncAt("short journal block", 5*sectorsPerBlock)
	if !rewrite(host, 1000, fill(100, 3)) {
		t.Fatal("a rewrite was refused after a newer snapshot moved elsewhere")
	}
	if !rewrite(j, 7*disk.SectorSize, fill(disk.SectorSize, 6)) {
		t.Fatal("the journal block did not grow")
	}
	// The run ends at the journal block's last sector, where the pad's
	// slot starts: no block's tail, so the snapshot goes after the pad.
	syncAt("rewrites only, after a pad", 6*sectorsPerBlock)
	add(KindInode, fill(300, 7)) // slot 5, after the second pad
	syncAt("short inode block", 6*sectorsPerBlock+sectorsPerBlock+1)
}
