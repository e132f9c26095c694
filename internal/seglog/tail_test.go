package seglog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"s4/internal/disk"
	"s4/internal/types"
)

// TestReusedSegmentTailsStayUnread fills segment 0 with whole blocks of
// non-zero bytes, every sector carrying a valid CRC of its own as a
// journal sector does, seals, frees and reopens it, and writes short
// data, journal, audit and inode blocks over that first life, one
// journal rewrite leaving a gap past the block's Len. A flush
// ends each run at its last block's Len, so the sectors past it still
// hold the first life's bytes on the device, but where a partial
// snapshot follows the run in the block's own tail; every reader must
// replace them with the zeros the staged image holds. It checks this on a fresh
// open of the device (no flush buffer to repair from) twice: with the
// segment open under a partial snapshot, whose journal block carries no
// Sum and is read whole, and after its seal. TestPropertyDeviceMatchesStaged
// covers fresh segments.
func TestReusedSegmentTailsStayUnread(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < l.PayloadBlocks(); i++ {
		blk := make([]byte, BlockSize)
		for s := 0; s < sectorsPerBlock; s++ {
			sec := blk[s*disk.SectorSize : (s+1)*disk.SectorSize]
			rnd.Read(sec[:disk.SectorSize-4])
			binary.LittleEndian.PutUint32(sec[disk.SectorSize-4:], crc32.ChecksumIEEE(sec[:disk.SectorSize-4]))
		}
		if _, err := l.Append(KindJournal, 1, 0, types.Timestamp(i+1), blk); err != nil {
			t.Fatal(err)
		}
	}
	if l.CurrentSegment() != -1 || l.flushBufSeg != 0 {
		t.Fatalf("first life did not seal segment 0 (open %d, sealed %d)", l.CurrentSegment(), l.flushBufSeg)
	}
	old := bytes.Clone(l.flushBuf)
	appendN(t, l, 2, 0, 1) // opens segment 1
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.FreeSegment(0); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 1, l.PayloadBlocks()-1) // seals 1, which promised 0
	if l.CurrentSegment() != -1 {
		t.Fatalf("segment %d still open", l.CurrentSegment())
	}

	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	if _, err := l.AppendVec(KindData, 3, VecEntry{Data: fill(BlockSize, 1)}, VecEntry{Key: 1, Data: fill(700, 2)}, VecEntry{Key: 2, Data: fill(1500, 3)}); err != nil {
		t.Fatal(err)
	}
	if l.CurrentSegment() != 0 {
		t.Fatalf("second life opened segment %d, want 0", l.CurrentSegment())
	}
	mustSync(t, l) // slots 0-2 in one run, slot 2 trimmed, its snapshot after it; pad 3
	jaddr, err := l.Append(KindJournal, 3, 0, 5, fill(disk.SectorSize, 4))
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, l) // a fresh journal block: one sector; pad 5
	if ok, err := l.RewriteRange(jaddr, disk.SectorSize, fill(disk.SectorSize, 5)); !ok || err != nil {
		t.Fatalf("rewrite: ok=%v %v", ok, err)
	}
	if _, err := l.Append(KindAudit, 0, 0, 6, fill(2000, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindInode, 3, 1, 7, fill(300, 7)); err != nil {
		t.Fatal(err)
	}
	mustSync(t, l) // the journal's second sector; slots 6-7 in one run, 7 trimmed, its snapshot after it; pad 8
	checkReusedTails(t, dev, old, bytes.Clone(l.buf), l.entries, []int{2, 4, 7}, []int{2, 7}, true)

	// A rewrite past a gap: the journal block's Len jumps from two
	// sectors to four, and the third, never staged, must reach the
	// device as the zeros it is staged as, not stay the first life's.
	if ok, err := l.RewriteRange(jaddr, 3*disk.SectorSize, fill(disk.SectorSize, 9)); !ok || err != nil {
		t.Fatalf("rewrite past a gap: ok=%v %v", ok, err)
	}
	var es []VecEntry
	for i, n := range []int{1, 511, 512, 513, 4000, 2048} {
		es = append(es, VecEntry{Key: uint64(3 + i), Data: fill(n, byte(8+i))})
	}
	if _, err := l.AppendVec(KindData, 3, es...); err != nil {
		t.Fatal(err)
	}
	if l.CurrentSegment() != -1 || l.flushBufSeg != 0 {
		t.Fatalf("second life did not seal segment 0 (open %d, sealed %d)", l.CurrentSegment(), l.flushBufSeg)
	}
	sum, ok, err := l.ReadSummary(0)
	if err != nil || !ok {
		t.Fatalf("seal summary: ok=%v %v", ok, err)
	}
	checkReusedTails(t, dev, old, bytes.Clone(l.flushBuf), sum.Entries, []int{2, 4, 7, 14}, []int{2, 7}, false)
}

// checkReusedTails holds the second life of segment 0, staged as image
// and described by entries, to what the device and a fresh open of it
// show. On the device, each block that ended a flush run (trimmed) keeps
// the first life's bytes, old, past its Len, but for the partial
// snapshot a host's tail starts with (hosts); every other block but a
// pad is its staged image. A fresh log reads the staged image back through
// ReadRun, for every run of covered blocks, VerifySegment and, while the
// segment is open, ScanFrom's payload, with no block found corrupt.
func checkReusedTails(t *testing.T, dev *disk.Disk, old, image []byte, entries []SummaryEntry, trimmed, hosts []int, open bool) {
	t.Helper()
	l := reopen(t, dev)
	base := l.segBase(0)
	two := make([]byte, 2*BlockSize) // a snapshot in a tail may run into the pad's slot
	blk := two[:BlockSize]
	nonPad := 0
	for i, e := range entries {
		if e.Kind == KindPad {
			continue
		}
		nonPad++
		idx := 1 + i
		if err := readBlocks(dev, base+int64(idx), two); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(image[idx*BlockSize : (idx+1)*BlockSize])
		if slices.Contains(trimmed, i) {
			end := roundSector(int(e.Len))
			if end == BlockSize {
				t.Fatalf("slot %d (Len %d) has no tail to leave unwritten", i, e.Len)
			}
			copy(want[end:], old[idx*BlockSize+end:(idx+1)*BlockSize])
			if slices.Contains(hosts, i) {
				h, ok := checkSummary(two[end:])
				if !ok || h.count != i+1 {
					t.Fatalf("open=%v: slot %d (Len %d): no snapshot of %d blocks right after its Len (ok=%v, %d)", open, i, e.Len, i+1, ok, h.count)
				}
				copy(want[end:], blk[end:min(end+roundSector(h.size), BlockSize)])
			}
		}
		if !bytes.Equal(blk, want) {
			t.Fatalf("open=%v: slot %d (%v, Len %d, trimmed %v): device holds other bytes", open, i, e.Kind, e.Len, slices.Contains(trimmed, i))
		}
	}
	same := func(what string, first int, got []byte) {
		t.Helper()
		for k := 0; k*BlockSize < len(got); k++ {
			i := first + k
			if entries[i].Kind == KindPad {
				continue
			}
			if !bytes.Equal(got[k*BlockSize:(k+1)*BlockSize], image[(1+i)*BlockSize:(2+i)*BlockSize]) {
				t.Fatalf("open=%v: %s: slot %d (%v, Len %d) differs from its staged bytes", open, what, i, entries[i].Kind, entries[i].Len)
			}
		}
	}
	buf := make([]byte, len(entries)*BlockSize)
	for s := range entries {
		for n := 1; s+n <= len(entries); n++ {
			if err := l.ReadRun(l.EntryAt(0, s), n, buf[:n*BlockSize]); err != nil {
				t.Fatalf("open=%v: ReadRun %d+%d: %v", open, s, n, err)
			}
			same("ReadRun", s, buf[:n*BlockSize])
		}
	}
	if open {
		scanned := false
		if err := l.ScanFrom(0, func(seg int64, _ Summary, payload []byte) error {
			if seg == 0 {
				scanned = payload != nil
				same("ScanFrom", 0, payload)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !scanned {
			t.Fatalf("ScanFrom handed no payload of the open segment")
		}
	}
	l.MarkAllocated(0)
	if checked, corrupt, err := l.VerifySegment(0); err != nil || checked != nonPad || corrupt != 0 {
		t.Fatalf("open=%v: VerifySegment checked %d corrupt %d err %v, want %d, 0", open, checked, corrupt, err, nonPad)
	}
	if det, rep, quar := l.IntegrityStats(); det != 0 || rep != 0 || quar != 0 {
		t.Fatalf("open=%v: det=%d rep=%d quar=%d, want none", open, det, rep, quar)
	}
}
