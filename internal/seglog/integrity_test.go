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
// memory in make. The one version it accepts is its own, 5.
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
		{"formatVer 5", put32(4, 5), true},
		{"formatVer 6", put32(4, 6), false},
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
		})
	}
	if err := writeBlocks(dev, 0, good); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev); err != nil {
		t.Fatalf("the unforged superblock no longer opens: %v", err)
	}
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
	off := v3HeaderSize
	for _, e := range sum.Entries {
		sb[off] = byte(e.Kind)
		binary.LittleEndian.PutUint64(sb[off+1:], uint64(e.Obj))
		binary.LittleEndian.PutUint64(sb[off+9:], e.Key)
		binary.LittleEndian.PutUint64(sb[off+17:], uint64(e.Time))
		binary.LittleEndian.PutUint32(sb[off+25:], e.Len)
		binary.LittleEndian.PutUint32(sb[off+29:], e.Sum)
		off += summaryEntrySize
	}
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
// (past summaryLen) must be rejected or decode to self-consistent
// entries; TestSummaryCRCCoversHeaderAndEntries checks that at every
// byte. A CRC is not a MAC, so the neighbours an accepted summary names
// are hostile too: the chain walk may step only to a segment inside the
// log, and never from a segment to itself.
func FuzzSegSummaryChecksums(f *testing.F) {
	// Seeds: a genuine sealed summary, a truncated one, junk, an open
	// record (a summary with no entries), the same sealed summary in the
	// version-3 and version-4 layouts, and open records naming a
	// successor past the log, the segment itself as successor or as
	// predecessor.
	l, _ := newFaultLog(f, 8)
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindData, 9, uint64(i), types.Timestamp(i+1),
			bytes.Repeat([]byte{byte(i)}, BlockSize)); err != nil {
			f.Fatal(err)
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
	if err != nil || !ok {
		f.Fatalf("genuine sealed summary: ok=%v err=%v", ok, err)
	}
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

	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok, err := decodeSummary(data)
		if err != nil {
			t.Fatalf("decodeSummary returned an error on hostile bytes: %v", err)
		}
		if !ok {
			return
		}
		// Accepted: the self-described shape must fit the input.
		if summaryHeaderSize+len(s.Entries)*summaryEntrySize > len(data) {
			t.Fatalf("accepted summary of %d entries overruns %d input bytes", len(s.Entries), len(data))
		}
		if len(s.Entries) > maxSegBlocks() {
			t.Fatalf("accepted summary with impossible entry count %d", len(s.Entries))
		}
		// Its neighbours, as the walk judges a hop to it from the
		// predecessor it names: only the successor is left to refuse.
		h, _ := checkSummary(data)
		if hopFault(h, fuzzSeg, h.prev, h.opened, false, nSeg) == "" &&
			(h.next < 0 || h.next >= nSeg || h.next == fuzzSeg || h.prev == fuzzSeg) {
			t.Fatalf("the walk would step from segment %d (prev %d) to segment %d of %d", fuzzSeg, h.prev, h.next, nSeg)
		}
	})
}
