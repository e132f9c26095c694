package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"s4/internal/disk"
	"s4/internal/types"
)

// newFaultLog builds a log on a rot-capable memory Disk.
func newFaultLog(t testing.TB, segBlocks int) (*Log, *disk.Disk) {
	t.Helper()
	dev := disk.New(disk.SmallDisk(8<<20), nil)
	cfg := Config{SegBlocks: segBlocks, CheckpointBlocks: 4}
	if err := Format(dev, cfg); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

const sectorsOfBlock = BlockSize / disk.SectorSize

// rotBlock flips bits in every sector of the block at addr.
func rotBlock(dev *disk.Disk, addr BlockAddr) {
	for s := int64(0); s < sectorsOfBlock; s++ {
		dev.RotSector(int64(addr)*sectorsOfBlock+s, 0x5A)
	}
}

// TestVerifiedReadDetectsRot seals a segment, rots one of its blocks on
// media, and checks the read fails with the typed CorruptError carrying
// the damage coordinates — and that the segment is quarantined so the
// allocator will never hand it out again.
func TestVerifiedReadDetectsRot(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	payload := l.PayloadBlocks()
	addrs := make([]BlockAddr, 0, 2*payload)
	for i := 0; i < 2*payload; i++ {
		a, err := l.Append(KindData, 7, uint64(i), types.Timestamp(i+1),
			bytes.Repeat([]byte{byte(i + 1)}, BlockSize))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Drop the retained flush image so repair cannot mask detection.
	l.mu.Lock()
	l.flushBufSeg = -1
	l.mu.Unlock()

	victim := addrs[1] // settled in the first (sealed) segment
	rotBlock(dev, victim)
	buf := make([]byte, BlockSize)
	err := l.Read(victim, buf)
	var ce *types.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("read of rotted block: %v, want CorruptError", err)
	}
	if !errors.Is(err, types.ErrCorrupt) {
		t.Fatal("CorruptError does not unwrap to ErrCorrupt")
	}
	seg := l.SegOf(victim)
	if ce.Segment != seg || ce.Block != uint64(victim) {
		t.Fatalf("error coordinates %+v do not name seg %d block %d", ce, seg, victim)
	}
	if !l.IsQuarantined(seg) {
		t.Fatal("detection did not quarantine the segment")
	}
	det, _, quar := l.IntegrityStats()
	if det == 0 || quar == 0 {
		t.Fatalf("integrity stats not advanced: det=%d quar=%d", det, quar)
	}

	// Clean blocks in the same segment still read fine.
	if err := l.Read(addrs[0], buf); err != nil {
		t.Fatalf("clean block in quarantined segment: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{1}, BlockSize)) {
		t.Fatal("clean block content damaged")
	}

	// VerifySegment counts the rot without failing.
	checked, corrupt, err := l.VerifySegment(seg)
	if err != nil {
		t.Fatalf("VerifySegment: %v", err)
	}
	if checked == 0 || corrupt == 0 {
		t.Fatalf("VerifySegment missed the rot: checked=%d corrupt=%d", checked, corrupt)
	}
}

// TestVerifiedReadRepairsFromFlushBuffer rots a block of the segment
// whose sealed image the double-buffer still retains: the read must
// return the correct bytes, count a repair, and rewrite the media so
// the next read is clean without the buffer's help.
func TestVerifiedReadRepairsFromFlushBuffer(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	payload := l.PayloadBlocks()
	addrs := make([]BlockAddr, 0, payload)
	for i := 0; i < payload; i++ {
		a, err := l.Append(KindData, 7, uint64(i), types.Timestamp(i+1),
			bytes.Repeat([]byte{byte(i + 1)}, BlockSize))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := addrs[2]
	seg := l.SegOf(victim)
	l.mu.Lock()
	retained := l.flushBufSeg
	l.mu.Unlock()
	if retained != seg {
		t.Fatalf("flush buffer retains segment %d, want %d; seal path changed?", retained, seg)
	}

	rotBlock(dev, victim)
	buf := make([]byte, BlockSize)
	if err := l.Read(victim, buf); err != nil {
		t.Fatalf("read with redundant copy available: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{3}, BlockSize)) {
		t.Fatal("repaired read returned wrong bytes")
	}
	det, rep, quar := l.IntegrityStats()
	if rep != 1 || quar != 0 {
		t.Fatalf("want exactly one repair and no quarantine, got det=%d rep=%d quar=%d", det, rep, quar)
	}
	if l.IsQuarantined(seg) {
		t.Fatal("repaired segment must not be quarantined")
	}

	// The in-place rewrite replaced the rotting sectors (a Disk
	// clears rot on overwrite), so the media itself is healed: read the
	// raw device and verify.
	raw := make([]byte, BlockSize)
	if err := dev.ReadSectors(int64(victim)*sectorsOfBlock, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf) {
		t.Fatal("repair did not rewrite the media copy")
	}
}

// TestVerifiedReadRepairsAfterPartialFlush seals a segment, then
// partially flushes the next one: the partial flush writes from the
// staging buffer, so the sealed image the double-buffer retains is
// still whole, and a rotted block of the sealed segment is repaired.
func TestVerifiedReadRepairsAfterPartialFlush(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	payload := l.PayloadBlocks()
	addrs := make([]BlockAddr, 0, payload)
	for i := 0; i < payload; i++ {
		a, err := l.Append(KindData, 7, uint64(i), types.Timestamp(i+1),
			bytes.Repeat([]byte{byte(i + 1)}, BlockSize))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	next, err := l.Append(KindData, 8, 0, 100, bytes.Repeat([]byte{0xEE}, BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegOf(addrs[0])
	if l.SegOf(next) == seg || l.CurrentSegment() != l.SegOf(next) {
		t.Fatalf("block %d landed in segment %d, want the open one after sealed %d", next, l.SegOf(next), seg)
	}

	victim := addrs[4]
	rotBlock(dev, victim)
	buf := make([]byte, BlockSize)
	if err := l.Read(victim, buf); err != nil {
		t.Fatalf("read after a partial flush of the next segment: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{5}, BlockSize)) {
		t.Fatal("repaired read returned wrong bytes")
	}
	if det, rep, quar := l.IntegrityStats(); det != 0 || rep != 1 || quar != 0 {
		t.Fatalf("want exactly one repair, got det=%d rep=%d quar=%d", det, rep, quar)
	}
}

// TestSealInstallsItsSummary holds a seal to what it leaves in
// memory (DESIGN.md §15). The summary it wrote is installed, decoded,
// so the first verified read of a block it sealed reads that
// block and no summary, and rot written behind the seal is still caught:
// repaired while flushBuf holds the segment, a CorruptError and a
// quarantine once the next seal took flushBuf. A seal whose device write
// fails installs no table and hands the sink nothing. The sink receives
// exactly the sealed segment's journal blocks, as the device holds them,
// in copies no later staging touches.
func TestSealInstallsItsSummary(t *testing.T) {
	type sunk struct {
		addr BlockAddr
		blk  []byte
	}
	// setup formats a log with 7 payload blocks a segment on a read-
	// counting rot-capable device, with a sink that records what it gets.
	setup := func(t *testing.T) (*Log, *disk.Disk, *readCounter, *[]sunk) {
		dev := disk.New(disk.SmallDisk(8<<20), nil)
		if err := Format(dev, Config{SegBlocks: 8, CheckpointBlocks: 4}); err != nil {
			t.Fatal(err)
		}
		cnt := &readCounter{Device: dev}
		l, err := Open(cnt)
		if err != nil {
			t.Fatal(err)
		}
		got := new([]sunk)
		l.SetSealSink(func(addr BlockAddr, blk []byte) { *got = append(*got, sunk{addr, blk}) })
		return l, dev, cnt, got
	}
	blk := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, BlockSize) }
	// fill appends n full blocks from i on, journal blocks at even i.
	fill := func(t *testing.T, l *Log, i, n int) (addrs []BlockAddr, journal map[BlockAddr]bool) {
		journal = make(map[BlockAddr]bool)
		for ; n > 0; i, n = i+1, n-1 {
			kind := KindData
			if i%2 == 0 {
				kind = KindJournal
			}
			a, err := l.Append(kind, 7, uint64(i), types.Timestamp(i+1), blk(i))
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
			if kind == KindJournal {
				journal[a] = true
			}
		}
		return addrs, journal
	}

	t.Run("table", func(t *testing.T) {
		l, dev, cnt, _ := setup(t)
		payload := l.PayloadBlocks()
		addrs, _ := fill(t, l, 0, payload)
		seg := l.SegOf(addrs[0])
		if l.CurrentSegment() == seg {
			t.Fatalf("segment %d still open after %d appends", seg, payload)
		}
		*cnt = readCounter{Device: dev}
		buf := make([]byte, BlockSize)
		if err := l.Read(addrs[2], buf); err != nil || !bytes.Equal(buf, blk(2)) {
			t.Fatalf("first read of a sealed block: %v", err)
		}
		if cnt.single != 1 || cnt.vectored != 0 || cnt.bytes != BlockSize {
			t.Fatalf("first read of a sealed block: %d one-block and %d multi-block device reads, %d bytes; want the block alone",
				cnt.single, cnt.vectored, cnt.bytes)
		}

		rotBlock(dev, addrs[3])
		if err := l.Read(addrs[3], buf); err != nil || !bytes.Equal(buf, blk(3)) {
			t.Fatalf("read of a block rotted behind the seal, flushBuf holding it: %v", err)
		}
		if det, rep, quar := l.IntegrityStats(); det != 0 || rep != 1 || quar != 0 {
			t.Fatalf("want exactly one repair, got det=%d rep=%d quar=%d", det, rep, quar)
		}

		fill(t, l, payload, payload) // the next seal takes flushBuf
		rotBlock(dev, addrs[4])
		var ce *types.CorruptError
		if err := l.Read(addrs[4], buf); !errors.As(err, &ce) || ce.Segment != seg || ce.Block != uint64(addrs[4]) {
			t.Fatalf("read of a block rotted behind the seal, flushBuf gone: %v, want a CorruptError for block %d of segment %d", err, addrs[4], seg)
		}
		if !l.IsQuarantined(seg) {
			t.Fatal("detection did not quarantine the segment")
		}
	})

	t.Run("failed seal", func(t *testing.T) {
		l, dev, _, got := setup(t)
		addrs, _ := fill(t, l, 0, l.PayloadBlocks()-1)
		seg := l.SegOf(addrs[0])
		errBoom := errors.New("boom")
		dev.FailAfter(0, errBoom)
		if _, err := l.Append(KindJournal, 7, 99, 99, blk(99)); !errors.Is(err, errBoom) {
			t.Fatalf("sealing append over a failing device: %v, want the device's error", err)
		}
		l.mu.Lock()
		_, installed := l.sums[seg]
		l.mu.Unlock()
		if installed {
			t.Fatalf("a seal whose write failed installed segment %d's summary", seg)
		}
		if len(*got) != 0 {
			t.Fatalf("a seal whose write failed handed the sink %d blocks", len(*got))
		}
	})

	t.Run("sink", func(t *testing.T) {
		l, dev, _, got := setup(t)
		payload := l.PayloadBlocks()
		// A partial flush and a rewrite in place first: the sink must get
		// the sealed bytes, not the first ones staged.
		addrs, journal := fill(t, l, 0, 3)
		mustSync(t, l)
		if len(*got) != 0 {
			t.Fatalf("a partial flush handed the sink %d blocks", len(*got))
		}
		if ok, err := l.RewriteRange(addrs[0], 512, bytes.Repeat([]byte{0xAB}, 512)); !ok || err != nil {
			t.Fatalf("rewrite of a staged journal block: ok=%v err=%v", ok, err)
		}
		// The partial flush's pad took a slot, so the last one spills
		// into the next segment.
		_, mj := fill(t, l, 3, payload-3)
		seg := l.SegOf(addrs[0])
		for a := range mj {
			if l.SegOf(a) == seg {
				journal[a] = true
			}
		}
		check := func(when string) {
			t.Helper()
			if len(*got) != len(journal) {
				t.Fatalf("%s: the sink got %d blocks, want the %d journal blocks of segment %d", when, len(*got), len(journal), seg)
			}
			seen := make(map[BlockAddr]bool)
			raw := make([]byte, BlockSize)
			for _, s := range *got {
				if !journal[s.addr] || seen[s.addr] {
					t.Fatalf("%s: the sink got block %d, not a journal block of segment %d or twice", when, s.addr, seg)
				}
				seen[s.addr] = true
				if err := dev.ReadSectors(int64(s.addr)*sectorsOfBlock, raw); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(s.blk, raw) {
					t.Fatalf("%s: the sink's copy of block %d differs from the device", when, s.addr)
				}
			}
		}
		check("after the seal")
		// The next seal swaps the sealed image's buffer back into staging,
		// and the appends after it overwrite it.
		n := len(*got)
		fill(t, l, payload+1, payload+2)
		*got = (*got)[:n]
		check("after the buffer was reused")
	})
}

// TestLenBoundedReadIgnoresTail seals a segment whose blocks hold less
// than a block each, reopens the log so that no flush buffer holds the
// image, and puts junk on the device past each block's Len. A verified
// read fetches a block up to its Len, rounded up to a sector, and fills
// the rest with the zeros the flush wrote there, which its checksum
// covers: the blocks read back as appended, with no CorruptError, no
// repair and no quarantine.
func TestLenBoundedReadIgnoresTail(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	lens := []int{1, 511, 512, 513, 1500, 3584, 3585} // one block each, filling the segment
	if len(lens) != l.PayloadBlocks() {
		t.Fatalf("%d lengths for %d payload blocks", len(lens), l.PayloadBlocks())
	}
	sectors := func(i int) int64 { return int64(lens[i]+disk.SectorSize-1) / disk.SectorSize }
	var addrs []BlockAddr
	var want [][]byte
	for i, n := range lens {
		data := bytes.Repeat([]byte{byte(0x10 + i)}, n)
		a, err := l.Append(KindData, 7, uint64(i), types.Timestamp(i+1), data)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		want = append(want, append(data, make([]byte, BlockSize-n)...))
	}
	seg := l.SegOf(addrs[0])
	if l.CurrentSegment() == seg {
		t.Fatal("segment still open")
	}
	cnt := &readCounter{Device: dev}
	l = reopen(t, cnt)
	for i, a := range addrs {
		for s := sectors(i); s < sectorsOfBlock; s++ { // junk in every sector past the block's Len
			dev.RotSector(int64(a)*sectorsOfBlock+s, 0x5A)
		}
	}
	if _, err := l.Covered(seg); err != nil { // the summary, read before the counts below
		t.Fatal(err)
	}
	*cnt = readCounter{Device: dev}
	buf := make([]byte, BlockSize)
	wantBytes := int64(0)
	for i, a := range addrs {
		if err := l.Read(a, buf); err != nil {
			t.Fatalf("block %d (Len %d): %v", i, lens[i], err)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Fatalf("block %d (Len %d) read back other bytes than appended", i, lens[i])
		}
		wantBytes += sectors(i) * disk.SectorSize
	}
	if cnt.bytes != wantBytes {
		t.Fatalf("%d blocks read as %d bytes, want their Lens in whole sectors, %d", len(addrs), cnt.bytes, wantBytes)
	}
	if det, rep, quar := l.IntegrityStats(); det != 0 || rep != 0 || quar != 0 {
		t.Fatalf("junk past Len: det=%d rep=%d quar=%d, want none", det, rep, quar)
	}
}

// TestV1SummaryRejected rewrites a sealed segment's summary in the
// pre-checksum layout ("S4GS", no Sum column) with a valid CRC: it must
// read as "not a summary", like any other junk, so no entry list that
// lacks block checksums is ever believed.
func TestV1SummaryRejected(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindData, 7, uint64(i), 1, bytes.Repeat([]byte{0xAB}, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	sum, ok, err := l.ReadSummary(0)
	if err != nil || !ok {
		t.Fatalf("summary: %v ok=%v", err, ok)
	}
	sb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(sb[0:], 0x53344753)
	binary.LittleEndian.PutUint64(sb[4:], sum.Seq)
	binary.LittleEndian.PutUint32(sb[12:], uint32(len(sum.Entries)))
	const v1HeaderSize = 4 + 8 + 4 + 4 // magic, seq, count, crc
	off := v1HeaderSize
	for _, e := range sum.Entries {
		sb[off] = byte(e.Kind)
		binary.LittleEndian.PutUint64(sb[off+1:], uint64(e.Obj))
		binary.LittleEndian.PutUint64(sb[off+9:], e.Key)
		binary.LittleEndian.PutUint64(sb[off+17:], uint64(e.Time))
		binary.LittleEndian.PutUint32(sb[off+25:], e.Len)
		off += 1 + 8 + 8 + 8 + 4
	}
	binary.LittleEndian.PutUint32(sb[16:], crc32.ChecksumIEEE(sb[v1HeaderSize:]))
	if _, ok, err := decodeSummary(sb); ok || err != nil {
		t.Fatalf("v1 summary decoded: ok=%v err=%v", ok, err)
	}
	if err := writeBlocks(dev, l.segBase(0), sb); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l2.ReadSummary(0); ok || err != nil {
		t.Fatalf("segment with only a v1 summary: ok=%v err=%v, want no summary", ok, err)
	}
}

// TestOpenRejectsForgedSuperblock forges each superblock field in turn
// and recomputes the CRC, as anyone who can write the image file can.
// Open must answer ErrCorrupt; before the geometry was validated a zero
// SegBlocks divided by zero in SegOf and a huge segment count exhausted
// memory in make. The one version it accepts is its own, 6, and any
// other is a *FormatError naming it. A superblock holds no field a
// format bump changed, so the version-5 row is what a genuine version-5
// image (landmark entries naming root blocks) presents.
func TestOpenRejectsForgedSuperblock(t *testing.T) {
	_, dev := newFaultLog(t, 8)
	good := make([]byte, BlockSize)
	if err := readBlocks(dev, 0, good); err != nil {
		t.Fatal(err)
	}
	nSeg := binary.LittleEndian.Uint64(good[16:])
	put32 := func(off int, v uint32) func([]byte) {
		return func(sb []byte) { binary.LittleEndian.PutUint32(sb[off:], v) }
	}
	putSegs := func(v uint64) func([]byte) {
		return func(sb []byte) { binary.LittleEndian.PutUint64(sb[16:], v) }
	}
	for _, tc := range []struct {
		name   string
		forge  func([]byte)
		accept bool
	}{
		{"formatVer 1", put32(4, 1), false},
		{"formatVer 2", put32(4, 2), false}, // no open records: its open segment would scan as never written
		{"formatVer 3", put32(4, 3), false}, // unthreaded summaries: no chain to walk, entries where v4 keeps next/prev
		{"formatVer 4", put32(4, 4), false}, // summary CRCs over the whole block: a trimmed snapshot would fail them
		{"formatVer 5", put32(4, 5), false}, // landmark entries name a root block: a v6 decoder reads an address as an image length
		{"formatVer 6", put32(4, 6), false}, // fixed 33-byte summary entries: a v7 decoder reads a kind byte as varints
		{"formatVer 7", put32(4, 7), false}, // writes blocks whole: a v8 flush leaves an earlier life's bytes past Len that a v7 reader would take
		{"formatVer 8", put32(4, 8), true},
		{"formatVer 9", put32(4, 9), false},
		{"SegBlocks 0", put32(8, 0), false},
		{"SegBlocks 7", put32(8, 7), false},
		{"SegBlocks over one summary block", put32(8, uint32(maxSegBlocks()+1)), false},
		{"SegBlocks huge", put32(8, 1<<31), false},
		{"CheckpointBlocks 0", put32(12, 0), false},
		{"CheckpointBlocks past the device", put32(12, 1<<30), false},
		{"nSeg 0", putSegs(0), false},
		{"nSeg 3", putSegs(3), false},
		{"nSeg one past the device", putSegs(nSeg + 1), false},
		{"nSeg huge", putSegs(1 << 40), false},
		{"nSeg overflows int64", putSegs(1 << 63), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sb := append([]byte(nil), good...)
			tc.forge(sb)
			binary.LittleEndian.PutUint32(sb[28:], crc32.ChecksumIEEE(sb[:28]))
			if err := writeBlocks(dev, 0, sb); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dev)
			if tc.accept && err != nil {
				t.Fatalf("Open = %v; want the image accepted", err)
			}
			if !tc.accept && !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("Open = %v, %v; want ErrCorrupt", l, err)
			}
			var fe *FormatError
			if v := binary.LittleEndian.Uint32(sb[4:]); !tc.accept && v != formatVer && (!errors.As(err, &fe) || fe.Version != v) {
				t.Fatalf("Open = %v; want a *FormatError naming version %d", err, v)
			}
		})
	}
	if err := writeBlocks(dev, 0, good); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev); err != nil {
		t.Fatalf("the unforged superblock no longer opens: %v", err)
	}
}

// v6EntrySize is the fixed width of a summary entry before version 7:
// kind, obj, key, time, len and block CRC32.
const v6EntrySize = 1 + 8 + 8 + 8 + 4 + 4

// putV6Entries writes entries in the fixed layout of versions 3 to 6
// from sb[off:] on.
func putV6Entries(sb []byte, off int, entries []SummaryEntry) {
	for _, e := range entries {
		sb[off] = byte(e.Kind)
		binary.LittleEndian.PutUint64(sb[off+1:], uint64(e.Obj))
		binary.LittleEndian.PutUint64(sb[off+9:], e.Key)
		binary.LittleEndian.PutUint64(sb[off+17:], uint64(e.Time))
		binary.LittleEndian.PutUint32(sb[off+25:], e.Len)
		binary.LittleEndian.PutUint32(sb[off+29:], e.Sum)
		off += v6EntrySize
	}
}

// v6Summary re-encodes a summary block in the version-6 layout: magic
// "S4G4", a 36-byte header with the neighbours of h and no size,
// 33-byte entries, and a CRC over the header and entries.
func v6Summary(sum Summary, h sumHeader) []byte {
	const v6HeaderSize = 36
	sb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(sb[0:], 0x53344734)
	binary.LittleEndian.PutUint64(sb[4:], sum.Seq)
	binary.LittleEndian.PutUint32(sb[12:], uint32(len(sum.Entries)))
	binary.LittleEndian.PutUint32(sb[20:], segWord(h.next))
	binary.LittleEndian.PutUint32(sb[24:], segWord(h.prev))
	binary.LittleEndian.PutUint64(sb[28:], h.opened)
	putV6Entries(sb, v6HeaderSize, sum.Entries)
	n := v6HeaderSize + len(sum.Entries)*v6EntrySize
	binary.LittleEndian.PutUint32(sb[16:], crc32.Update(crc32.ChecksumIEEE(sb[:16]), crc32.IEEETable, sb[20:n]))
	return sb
}

// v3Summary re-encodes a summary block in the version-3 layout: magic
// "S4G2", entries right after a 20-byte header, no neighbours, and a CRC
// over everything after the header.
func v3Summary(sum Summary) []byte {
	const v3HeaderSize = 4 + 8 + 4 + 4
	sb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(sb[0:], 0x53344732)
	binary.LittleEndian.PutUint64(sb[4:], sum.Seq)
	binary.LittleEndian.PutUint32(sb[12:], uint32(len(sum.Entries)))
	putV6Entries(sb, v3HeaderSize, sum.Entries)
	binary.LittleEndian.PutUint32(sb[16:], crc32.ChecksumIEEE(sb[v3HeaderSize:]))
	return sb
}

// v4Summary re-encodes a summary block in the version-4 layout: the same
// bytes, with a CRC over the whole block but the four bytes that hold it.
func v4Summary(sb []byte) []byte {
	v4 := append([]byte(nil), sb...)
	binary.LittleEndian.PutUint32(v4[16:], crc32.Update(crc32.ChecksumIEEE(v4[:16]), crc32.IEEETable, v4[20:]))
	return v4
}

// fuzzSeg is the segment FuzzSegSummaryChecksums takes each block to be
// block 0 of, for the chain walk's judgement of the neighbours it names.
const fuzzSeg = 1

// FuzzSegSummaryChecksums feeds hostile bytes to the summary codec:
// it must never panic, anything it accepts must satisfy the format's
// own bounds, and a valid encoding mutated anywhere but its CRC slack
// (past its size) must be rejected or decode to self-consistent
// entries; TestSummaryCRCCoversHeaderAndEntries checks that at every
// byte. A CRC is not a MAC, so the neighbours an accepted summary names
// are hostile too: the chain walk may step only to a segment inside the
// log, and never from a segment to itself.
func FuzzSegSummaryChecksums(f *testing.F) {
	// Seeds: a genuine partial-flush snapshot and the seal after it, a
	// truncated seal, junk, an open record (a summary with no entries),
	// the same seal in the version-3, -4 and -6 layouts, open records
	// naming a successor past the log, the segment itself as successor
	// or as predecessor, and a genuine seal of journal blocks whose Lens
	// end at sectors.
	l, dev := newFaultLog(f, 8)
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindData, 9, uint64(i), types.Timestamp(i+1)*1e6,
			bytes.Repeat([]byte{byte(i)}, BlockSize)); err != nil {
			f.Fatal(err)
		}
		if i == 2 {
			if err := l.Sync(); err != nil {
				f.Fatal(err)
			}
			snap := make([]byte, BlockSize) // in the slot after the three blocks
			if err := readBlocks(dev, l.segBase(0)+4, snap); err != nil {
				f.Fatal(err)
			}
			if s, ok, _ := decodeSummary(snap); !ok || len(s.Entries) != 3 {
				f.Fatalf("genuine snapshot: ok=%v, %d entries", ok, len(s.Entries))
			}
			f.Add(snap)
		}
	}
	if err := l.Sync(); err != nil {
		f.Fatal(err)
	}
	sb := make([]byte, BlockSize)
	if err := readBlocks(l.dev, l.segBase(0), sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb)
	f.Add(make([]byte, BlockSize))
	f.Add([]byte{})
	short := append([]byte(nil), sb[:40]...)
	f.Add(short)
	sealed, ok, err := decodeSummary(sb)
	if err != nil || !ok || len(sealed.Entries) != l.PayloadBlocks() {
		f.Fatalf("genuine sealed summary: ok=%v err=%v", ok, err)
	}
	v6 := v6Summary(sealed, headerOf(sb))
	if _, ok, _ := decodeSummary(v6); ok {
		f.Fatal("a version-6 summary, its entries 33 bytes each, decodes")
	}
	f.Add(v6)
	v3 := v3Summary(sealed)
	if _, ok, _ := decodeSummary(v3); ok {
		f.Fatal("a version-3 summary decodes")
	}
	f.Add(v3)
	v4 := v4Summary(sb)
	if _, ok, _ := decodeSummary(v4); ok {
		f.Fatal("a version-4 summary, its CRC over the whole block, decodes")
	}
	f.Add(v4)
	record := func(next, prev int64) []byte {
		l.entries = l.entries[:0]
		l.nextSeg, l.curPrev = next, prev
		rec := make([]byte, BlockSize)
		l.encodeSummaryLocked(rec, 7, false)
		return rec
	}
	rec := record(2, 0)
	if s, ok, _ := decodeSummary(rec); !ok || s.Seq != 7 || len(s.Entries) != 0 {
		f.Fatalf("open record does not decode as an empty summary: %+v ok=%v", s, ok)
	}
	f.Add(rec)
	f.Add(record(l.nSegments, 0))
	f.Add(record(noSeg-1, 0))
	f.Add(record(fuzzSeg, 0))
	f.Add(record(2, fuzzSeg))
	nSeg := l.nSegments
	// A seal whose journal blocks carry sector lengths: each appended as
	// its one sector, then filled a sector at a time in place.
	lj, _ := newFaultLog(f, 8)
	for i := 0; i < lj.PayloadBlocks(); i++ {
		sector := bytes.Repeat([]byte{byte(i)}, disk.SectorSize)
		a, err := lj.Append(KindJournal, types.NoObject, 0, types.Timestamp(i+1), sector)
		if err != nil {
			f.Fatal(err)
		}
		for s := 1; s < i%sectorsOfBlock && lj.CurrentSegment() == 0; s++ {
			if _, err := lj.RewriteRange(a, s*disk.SectorSize, sector); err != nil {
				f.Fatal(err)
			}
		}
	}
	js := make([]byte, BlockSize)
	if err := readBlocks(lj.dev, lj.segBase(0), js); err != nil {
		f.Fatal(err)
	}
	if s, ok, _ := decodeSummary(js); !ok || len(s.Entries) != lj.PayloadBlocks() || s.Entries[3].Len != 3*disk.SectorSize {
		f.Fatalf("sealed journal summary: ok=%v %+v", ok, s.Entries)
	}
	f.Add(js)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok, err := decodeSummary(data)
		if err != nil {
			t.Fatalf("decodeSummary returned an error on hostile bytes: %v", err)
		}
		if !ok {
			return
		}
		// Accepted: the self-described shape must fit the input, every
		// entry taking one byte at least.
		h, _ := checkSummary(data)
		if h.size > len(data) || h.size > BlockSize || summaryHeaderSize+len(s.Entries) > h.size {
			t.Fatalf("accepted summary of %d entries in %d bytes overruns %d input bytes", len(s.Entries), h.size, len(data))
		}
		if len(s.Entries) > maxSegBlocks() {
			t.Fatalf("accepted summary with impossible entry count %d", len(s.Entries))
		}
		// Whatever Len an entry claims, a verified read of its block stays
		// inside the block, in whole sectors.
		for _, e := range s.Entries {
			if n := e.ReadSize(); n <= 0 || n > BlockSize || n%disk.SectorSize != 0 {
				t.Fatalf("entry of Len %d, Sum %#x reads %d bytes of its block", e.Len, e.Sum, n)
			}
		}
		// Its neighbours, as the walk judges a hop to it from the
		// predecessor it names: only the successor is left to refuse.
		if hopFault(h, fuzzSeg, h.prev, h.opened, false, nSeg) == "" &&
			(h.next < 0 || h.next >= nSeg || h.next == fuzzSeg || h.prev == fuzzSeg) {
			t.Fatalf("the walk would step from segment %d (prev %d) to segment %d of %d", fuzzSeg, h.prev, h.next, nSeg)
		}
	})
}
