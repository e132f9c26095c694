package seglog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"s4/internal/disk"
)

// A flush writes only the sectors that changed since they last reached
// the device (DESIGN.md §11.3): one device write per run of dirty
// blocks, trimmed to the lowest dirty sector of its first block and the
// highest of its last.

// writeLog records the sector range of every device write under it.
type writeLog struct {
	disk.Device
	writes [][2]int64 // [first, end) sectors
}

func (w *writeLog) WriteSectors(sector int64, buf []byte) error {
	w.writes = append(w.writes, [2]int64{sector, sector + int64(len(buf)/disk.SectorSize)})
	return w.Device.WriteSectors(sector, buf)
}

// sectorsOf is the [first, end) sector range of n sectors of the block
// at addr, from sector s of it.
func sectorsOf(addr BlockAddr, s, n int) [2]int64 {
	first := int64(addr)*sectorsPerBlock + int64(s)
	return [2]int64{first, first + int64(n)}
}

// TestSyncWritesOnlyDirtySectors rewrites single sectors of blocks the
// device already holds and checks what each Sync writes: the sectors the
// rewrites touched, one write per run of dirty blocks, plus the summary
// (its header and entries rounded up to a sector — a 2-entry snapshot
// is one sector, not a 4 KB block — in the snapshot slot, or in block 0
// for the seal). Writing every block with any change in it — 4 KB for a
// one-sector rewrite — fails every case.
func TestSyncWritesOnlyDirtySectors(t *testing.T) {
	wl := &writeLog{Device: disk.New(disk.SmallDisk(8<<20), nil)}
	if err := Format(wl, Config{SegBlocks: 64, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(wl)
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xA5}, BlockSize)
	sector := func(b byte) []byte { return bytes.Repeat([]byte{b}, disk.SectorSize) }
	appendBlock := func() BlockAddr {
		a, err := l.Append(KindJournal, 1, 0, 0, full)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	rewrite := func(a BlockAddr, off int, data []byte) {
		if ok, err := l.RewriteRange(a, off, data); err != nil || !ok {
			t.Fatalf("rewrite of %v at %d: ok=%v, %v", a, off, ok, err)
		}
	}
	// syncWrites syncs and checks the device saw exactly want, then the
	// snapshot's sectors (or, sealing, block 0).
	syncWrites := func(name string, want ...[2]int64) {
		t.Helper()
		seg := l.CurrentSegment()
		summary := BlockAddr(l.segBase(seg) + 1 + int64(l.used))
		n := (summaryLen(len(l.entries)) + disk.SectorSize - 1) / disk.SectorSize
		if l.used >= l.PayloadBlocks() {
			summary = BlockAddr(l.segBase(seg)) // no slot left for a snapshot: the Sync seals
		}
		want = append(want, sectorsOf(summary, 0, n))
		wl.writes = nil
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(wl.writes) != fmt.Sprint(want) {
			t.Fatalf("%s: device writes %v, want %v (dirty block runs + 1 summary)", name, wl.writes, want)
		}
	}

	a := appendBlock()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sectorsPerBlock; k++ {
		rewrite(a, k*disk.SectorSize, sector(byte(k)))
		syncWrites(fmt.Sprintf("one sector at slot %d", k), sectorsOf(a, k, 1))
	}
	if w := wl.writes[1]; w[1]-w[0] != 1 {
		t.Fatalf("snapshot of %d entries took sectors %v, want one", len(l.entries)-1, w)
	}
	rewrite(a, 2*disk.SectorSize, sector(0x22))
	rewrite(a, 5*disk.SectorSize, sector(0x55))
	syncWrites("slots 2 and 5", sectorsOf(a, 2, 4))
	rewrite(a, 1000, []byte("unaligned"))
	syncWrites("9 bytes at offset 1000", sectorsOf(a, 1, 1))
	rewrite(a, 1020, []byte("straddles"))
	syncWrites("9 bytes at offset 1020", sectorsOf(a, 1, 2))

	b := appendBlock()
	rewrite(b, 100, []byte("staged, never flushed"))
	syncWrites("rewrite of a block not yet flushed", sectorsOf(b, 0, sectorsPerBlock))

	// A run of two dirty blocks is one write, trimmed at both ends.
	c, d := appendBlock(), appendBlock()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	rewrite(c, 6*disk.SectorSize, sector(0xC6))
	rewrite(d, 1*disk.SectorSize, sector(0xD1))
	syncWrites("run over two blocks", [2]int64{sectorsOf(c, 6, 1)[0], sectorsOf(d, 1, 1)[1]})

	// Fill the segment to one slot short, so the next Sync's snapshot
	// takes the last slot and the one after it must seal.
	for l.Room() > 1 {
		appendBlock()
	}
	wl.writes = nil
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if w := wl.writes[len(wl.writes)-1]; w[1]-w[0] != 5 {
		t.Fatalf("snapshot of %d entries took sectors %v, want five (%d bytes)", len(l.entries)-1, w, summaryLen(len(l.entries)-1))
	}
	if l.Room() != 0 || l.CurrentSegment() < 0 {
		t.Fatalf("room %d, open segment %d: want a full open segment", l.Room(), l.CurrentSegment())
	}
	rewrite(a, 7*disk.SectorSize, sector(0x77))
	rewrite(c, 0, sector(0xC0))
	seg := l.CurrentSegment()
	syncWrites("seal after rewrites", sectorsOf(a, 7, 1), sectorsOf(c, 0, 1))
	if l.CurrentSegment() >= 0 {
		t.Fatal("the Sync of a full segment did not seal it")
	}
	// The seal's sectors past its entries are the zeros the open
	// record's block left there: block 0 reads back as a whole-block
	// seal would have left it.
	blk := make([]byte, BlockSize)
	if err := readBlocks(wl, l.segBase(seg), blk); err != nil {
		t.Fatal(err)
	}
	if n := summaryLen(l.PayloadBlocks()); !bytes.Equal(blk[n:], make([]byte, BlockSize-n)) {
		t.Fatalf("sealed block 0 holds non-zero bytes past its %d-byte summary", n)
	}
}

// TestPropertyDeviceMatchesStaged runs random sequences of Append,
// AppendVec, RewriteRange (at unaligned offsets and lengths) and Sync,
// with segments sealing as they fill, and after every Sync holds the
// device to the staged bytes: every payload block of the open segment
// but a pad equals its staged image, and every sealed segment equals the
// image it was sealed with. It catches a sector mask whose upper bound
// is rounded down ((off+len)/512: the partly touched last sector of an
// unaligned rewrite never reaches the device) and a RewriteRange that
// sets bits only when the block's mask was zero (a second rewrite of the
// block between two syncs loses its sectors).
func TestPropertyDeviceMatchesStaged(t *testing.T) {
	kinds := []Kind{KindData, KindJournal, KindAudit, KindInode}
	for seed := int64(1); seed <= 20; seed++ {
		l, _ := newFaultLog(t, 16)
		rnd := rand.New(rand.NewSource(seed))
		payload := func() []byte {
			b := make([]byte, 1+rnd.Intn(BlockSize))
			rnd.Read(b)
			return b
		}
		var addrs []BlockAddr
		sealed := map[int64][]byte{} // sealed segment -> the image it was sealed with
		noteSeal := func() {
			if seg := l.flushBufSeg; seg >= 0 && sealed[seg] == nil {
				sealed[seg] = append([]byte(nil), l.flushBuf...)
			}
		}
		for step := 0; step < 400; step++ {
			switch r := rnd.Intn(10); {
			case r < 3:
				a, err := l.Append(kinds[rnd.Intn(len(kinds))], 9, uint64(step), 0, payload())
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			case r < 4:
				es := make([]VecEntry, 1+rnd.Intn(5))
				for i := range es {
					es[i] = VecEntry{Key: uint64(i), Data: payload()}
				}
				as, err := l.AppendVec(kinds[rnd.Intn(len(kinds))], 9, es...)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, as...)
			case r < 8:
				if len(addrs) == 0 {
					continue
				}
				a := addrs[len(addrs)-1-rnd.Intn(min(len(addrs), 16))]
				off := rnd.Intn(BlockSize)
				b := make([]byte, 1+rnd.Intn(min(BlockSize-off, 2*disk.SectorSize)))
				rnd.Read(b)
				if _, err := l.RewriteRange(a, off, b); err != nil {
					t.Fatal(err)
				}
			default:
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				noteSeal()
				checkDeviceMatchesStaged(t, l, sealed, fmt.Sprintf("seed %d step %d", seed, step))
			}
			noteSeal()
		}
		if len(sealed) < 5 {
			t.Fatalf("seed %d: only %d segments sealed", seed, len(sealed))
		}
	}
}

// checkDeviceMatchesStaged compares the open segment's payload and every
// sealed segment's with their staged images, skipping pad slots: those
// hold a retired snapshot on the device and zeros in memory.
func checkDeviceMatchesStaged(t *testing.T, l *Log, sealed map[int64][]byte, where string) {
	t.Helper()
	blk := make([]byte, BlockSize)
	check := func(seg int64, entries []SummaryEntry, image []byte) {
		for i, e := range entries {
			if e.Kind == KindPad {
				continue
			}
			idx := 1 + i
			if err := readBlocks(l.dev, l.segBase(seg)+int64(idx), blk); err != nil {
				t.Fatal(err)
			}
			if want := image[idx*BlockSize : (idx+1)*BlockSize]; !bytes.Equal(blk, want) {
				for s := 0; s < sectorsPerBlock; s++ {
					if !bytes.Equal(blk[s*disk.SectorSize:(s+1)*disk.SectorSize], want[s*disk.SectorSize:(s+1)*disk.SectorSize]) {
						t.Fatalf("%s: segment %d block %d (%v) sector %d differs from its staged bytes", where, seg, idx, e.Kind, s)
					}
				}
			}
		}
	}
	if seg := l.CurrentSegment(); seg >= 0 {
		check(seg, l.entries, l.buf)
	}
	for seg, image := range sealed {
		sum, ok, err := l.ReadSummary(seg)
		if err != nil || !ok || len(sum.Entries) != l.PayloadBlocks() {
			t.Fatalf("%s: sealed segment %d: no seal summary (ok=%v, %v)", where, seg, ok, err)
		}
		check(seg, sum.Entries, image)
	}
}
