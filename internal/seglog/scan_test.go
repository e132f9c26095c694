package seglog

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"s4/internal/disk"
	"s4/internal/types"
)

// The roll-forward scan and the open record (DESIGN.md §14.5): what one
// read of block 0 decides, and the crash windows of the record itself.

// readCounter counts the reads that reach the device under it: probes
// of one block or less (a summary's sectors, a block up to its Len) apart
// from multi-block fetches.
type readCounter struct {
	disk.Device
	single, vectored int
	bytes            int64
}

func (c *readCounter) ReadSectors(sector int64, buf []byte) error {
	if len(buf) <= BlockSize {
		c.single++
	} else {
		c.vectored++
	}
	c.bytes += int64(len(buf))
	return c.Device.ReadSectors(sector, buf)
}

// appendN stages n recognisable data blocks for obj, keyed from key up.
func appendN(t *testing.T, l *Log, obj types.ObjectID, key, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(KindData, obj, uint64(key+i), types.Timestamp(key+i+1), bytes.Repeat([]byte{byte(key + i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
}

func mustSync(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, dev disk.Device) *Log {
	t.Helper()
	l, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// scanHits runs ScanFrom and returns the sequence each hit segment
// reported.
func scanHits(t *testing.T, l *Log, afterSeq uint64) map[int64]uint64 {
	t.Helper()
	hits := make(map[int64]uint64)
	if err := l.ScanFrom(afterSeq, func(seg int64, sum Summary, _ []byte) error {
		hits[seg] = sum.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return hits
}

// resumeHits reads the checkpoint and scans from it, as recovery does,
// and returns the sequence each hit segment reported.
func resumeHits(t *testing.T, l *Log) map[int64]uint64 {
	t.Helper()
	_, _, seq, _, err := l.ReadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return scanHits(t, l, seq)
}

// walkWhy walks the chain of a fresh open of dev from its checkpoint and
// says why the walk falls back to probing every segment, or "".
func walkWhy(t *testing.T, dev disk.Device) string {
	t.Helper()
	l := reopen(t, dev)
	if _, _, _, _, err := l.ReadCheckpoint(); err != nil {
		t.Fatal(err)
	}
	_, _, why, err := l.walkChain(l.anchor, &scanBuf{blk: make([]byte, BlockSize)})
	if err != nil {
		t.Fatal(err)
	}
	return why
}

// TestScanReadsOnePerClosedSegment is the scan's cost as a count: on a log
// of N segments — k sealed, one open with a synced snapshot, the rest
// never written — recovery's ScanFrom follows the chain from segment 0
// (no checkpoint: where Format left the log) and reads block 0 of the k+1
// segments on it, block 0 of the successor the open one promised (zero:
// the chain ends), and the rest of the open segment with one vectored
// read. A block 0 is read as far as a summary reaches, not whole. Until
// the log was threaded it read block 0 of all N segments;
// before the open record, every segment without a sealed summary was
// probed block by block, N-k segments times SegBlocks-1 more reads.
func TestScanReadsOnePerClosedSegment(t *testing.T) {
	const sealed = 3
	l, dev := newFaultLog(t, 16)
	appendN(t, l, 1, 0, sealed*l.PayloadBlocks())
	appendN(t, l, 2, 1000, 2)
	mustSync(t, l)

	cnt := &readCounter{Device: dev}
	l2 := reopen(t, cnt)
	_, _, seq, _, err := l2.ReadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	*cnt = readCounter{Device: dev} // the superblock and checkpoint reads are Open's, not the scan's
	hits := scanHits(t, l2, seq)
	if len(hits) != sealed+1 {
		t.Fatalf("scan hit segments %v, want the %d sealed and the open one", hits, sealed)
	}
	n := int(l2.NumSegments())
	if cnt.single != sealed+2 || cnt.vectored != 1 {
		t.Fatalf("scan of %d segments, %d written, issued %d one-block and %d vectored reads, want %d and 1",
			n, sealed+1, cnt.single, cnt.vectored, sealed+2)
	}
	if want := int64(sealed+2)*int64(l2.summarySpan()) + int64(l2.PayloadBlocks())*BlockSize; cnt.bytes != want {
		t.Fatalf("scan read %d bytes, want %d", cnt.bytes, want)
	}
	// The scan read every summary the open's verified reads need.
	*cnt = readCounter{Device: dev}
	blk := make([]byte, BlockSize)
	for seg := range hits {
		if err := l2.Read(l2.EntryAt(seg, 0), blk); err != nil {
			t.Fatal(err)
		}
	}
	if cnt.single != len(hits) || cnt.vectored != 0 {
		t.Fatalf("%d verified reads issued %d one-block and %d vectored reads, want only the blocks", len(hits), cnt.single, cnt.vectored)
	}
	// The probe it replaces reads block 0 of every segment.
	*cnt = readCounter{Device: dev}
	if probed := scanHits(t, reopen(t, cnt), seq); len(probed) != len(hits) || cnt.single != n+1 {
		t.Fatalf("probe: %d hits, %d one-block reads; want %d and %d", len(probed), cnt.single, len(hits), n+1)
	}
}

// TestCrashBeforeFirstSnapshot crashes between the first payload write of
// a segment and its first summary snapshot. The open record rode that
// write (it is the write's first block, not a write of its own), so the
// segment reads as opened; it has no summary yet, so the scan reports
// nothing for it and no block of it is covered — the payload was never
// acknowledged.
func TestCrashBeforeFirstSnapshot(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	dev.StartRecording()
	appendN(t, l, 1, 0, 2)
	mustSync(t, l)
	if dev.Writes() != 2 {
		t.Fatalf("first sync of a segment took %d device writes, want 2 (payload run, snapshot)", dev.Writes())
	}
	// The run ends at the second block's Len: its sectors past it are
	// staged zeros that no reader takes from the device.
	want := 2*sectorsPerBlock + 1 // appendN's blocks are 64 bytes, one sector
	if w := dev.Record(0); w.Sector != l.segBase(0)*sectorsPerBlock || w.Sectors() != want {
		t.Fatalf("first write covers sectors %d+%d, want %d: the record, one payload block and the second's Len from the segment base", w.Sector, w.Sectors(), want)
	}
	if w := dev.Record(1); w.Sector != l.segBase(0)*sectorsPerBlock+int64(want) {
		t.Fatalf("the snapshot starts at sector %d, want %d: right after the run, in the second block's tail", w.Sector, l.segBase(0)*sectorsPerBlock+int64(want))
	}

	img, err := dev.ImageAt(1)
	if err != nil {
		t.Fatal(err)
	}
	cnt := &readCounter{Device: img}
	lr := reopen(t, cnt)
	blk := make([]byte, BlockSize)
	if err := readBlocks(img, lr.segBase(0), blk); err != nil {
		t.Fatal(err)
	}
	if h, ok := checkSummary(blk); !ok || h.count != 0 {
		t.Fatalf("block 0 after the first payload write: ok=%v entries=%d, want an open record", ok, h.count)
	}
	*cnt = readCounter{Device: img}
	if sum, ok, err := lr.ReadSummary(0); err != nil || ok {
		t.Fatalf("segment with a record and no snapshot: summary %+v ok=%v err=%v, want none", sum, ok, err)
	}
	if cnt.single != 1 || cnt.vectored != 1 {
		t.Fatalf("lookup issued %d one-block and %d vectored reads, want 1 and 1", cnt.single, cnt.vectored)
	}
	if hits := scanHits(t, lr, 0); len(hits) != 0 {
		t.Fatalf("scan hit %v before any snapshot was durable", hits)
	}

	// One write later the snapshot is there and describes both blocks.
	if img, err = dev.ImageAt(2); err != nil {
		t.Fatal(err)
	}
	if sum, ok, err := reopen(t, img).ReadSummary(0); err != nil || !ok || len(sum.Entries) != 2 {
		t.Fatalf("after the snapshot write: summary %+v ok=%v err=%v, want two entries", sum, ok, err)
	}
}

// reusedSegment seals segment 0 (with two partial syncs on the way, so its
// old life leaves trailing snapshots behind as well as a sealed summary),
// checkpoints and frees it. Segment 1, promised when 0 opened, then fills
// and seals; having found 0 free when it opened, it promised 0, whose
// second life starts with two staged blocks. It returns the checkpoint's
// sequence: everything of the old life is at or below it.
func reusedSegment(t *testing.T, l *Log) (cpSeq uint64) {
	t.Helper()
	appendN(t, l, 1, 0, 3)
	mustSync(t, l)
	appendN(t, l, 1, 3, 3)
	mustSync(t, l)
	for l.CurrentSegment() == 0 {
		appendN(t, l, 1, 100, 1)
	}
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	cpSeq = l.Seq()
	if err := l.FreeSegment(0); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 300, l.PayloadBlocks())
	appendN(t, l, 2, 200, 2)
	if l.CurrentSegment() != 0 {
		t.Fatalf("second life opened segment %d, want 0 (the successor 1 promised)", l.CurrentSegment())
	}
	return cpSeq
}

// TestTornRecordOverStaleSummary tears the first write of a reused
// segment inside block 0: one sector of the new open record over the
// sealed summary of the segment's previous life. The record is 36 bytes
// and its CRC covers only those, so the sector is a whole record: the
// segment reads as opened, with nothing behind the record newer than it
// — every snapshot of the previous life is at or below the checkpoint
// that authorised the reuse — and the walk reads on past it, as over a
// never-written segment. The same image with that sector rotted is what
// a tear cannot make: a block 0 that decodes as nothing, so the segment
// is read whole, and the chain, which reaches the segment as the
// successor segment 1 promised, cannot end there — a rotted seal reads
// the same — so the scan probes every segment. Either way the scan finds
// segment 1 alone and replays nothing of the previous life.
func TestTornRecordOverStaleSummary(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	cpSeq := reusedSegment(t, l)
	dev.StartRecording()
	mustSync(t, l)
	for _, rotted := range []bool{false, true} {
		img, err := dev.TornImageAt(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rotted {
			img.RotSector(l.segBase(0)*sectorsPerBlock, 0x5A)
		}
		blk := make([]byte, BlockSize)
		if err := readBlocks(img, l.segBase(0), blk); err != nil {
			t.Fatal(err)
		}
		h, ok := checkSummary(blk)
		if rotted && (ok || bytes.Equal(blk, zeroBlock[:])) {
			t.Fatal("rotted block 0 still decodes, or is zero")
		}
		if !rotted && (!ok || h.count != 0 || h.seq <= cpSeq) {
			t.Fatalf("block 0 torn after the record's sector: ok=%v %+v, want the new life's open record", ok, h)
		}
		cnt := &readCounter{Device: img}
		lr := reopen(t, cnt)
		*cnt = readCounter{Device: img}
		sum, ok, err := lr.ReadSummary(0)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.single != 1 || cnt.vectored != 1 {
			t.Fatalf("rotted=%v: %d one-block and %d vectored reads, want the whole segment (1 and 1)", rotted, cnt.single, cnt.vectored)
		}
		if ok && sum.Seq > cpSeq {
			t.Fatalf("rotted=%v: found a summary at seq %d above the checkpoint's %d in a segment whose new life has none", rotted, sum.Seq, cpSeq)
		}
		if seq, hit := scanHits(t, lr, cpSeq)[0]; hit {
			t.Fatalf("rotted=%v: scan from the checkpoint replayed the reused segment at seq %d", rotted, seq)
		}
		why := walkWhy(t, img)
		if fellBack := strings.Contains(why, "segment 0 holds neither"); fellBack != rotted || !rotted && why != "" {
			t.Fatalf("rotted=%v: walk over block 0: %q", rotted, why)
		}
		if hits := resumeHits(t, reopen(t, img)); len(hits) != 1 || hits[1] <= cpSeq {
			t.Fatalf("rotted=%v: resume hit %v, want segment 1 alone", rotted, hits)
		}
	}
}

// TestTornRecordOverSealFallsBack tears the first write of a segment
// after its record's first sector, once over a never-written segment
// and once over a reused one whose previous life left no snapshot behind
// its seal. The record's CRC covers its 36 bytes and no more, so either
// way block 0 is a whole record — over zeros, or over the rest of the
// old seal — and the walk reads on past it. With the record's sector
// rotted, the reused block 0 is no summary and not zero — what a rotted
// seal reads as, behind which the chain could go on — so the walk cannot
// end the chain there, and the scan probes every segment. Every way, it
// finds the one segment written since the checkpoint and nothing of the
// torn one: no Sync acknowledged it.
func TestTornRecordOverSealFallsBack(t *testing.T) {
	for _, tc := range []struct{ reused, rotted bool }{{false, false}, {true, false}, {true, true}} {
		l, dev := newFaultLog(t, 16)
		appendN(t, l, 1, 0, l.PayloadBlocks())
		if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
			t.Fatal(err)
		}
		if tc.reused {
			if err := l.FreeSegment(0); err != nil {
				t.Fatal(err)
			}
		}
		appendN(t, l, 2, 100, l.PayloadBlocks()+2)
		torn := l.CurrentSegment()
		if want := map[bool]int64{true: 0, false: 2}[tc.reused]; torn != want {
			t.Fatalf("%+v: the successor of segment 1 is %d, want %d", tc, torn, want)
		}
		dev.StartRecording()
		mustSync(t, l)
		img, err := dev.TornImageAt(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tc.rotted {
			img.RotSector(l.segBase(torn)*sectorsPerBlock, 0x5A)
		}
		why := walkWhy(t, img)
		if fellBack := strings.Contains(why, fmt.Sprintf("segment %d holds neither", torn)); fellBack != tc.rotted || !tc.rotted && why != "" {
			t.Fatalf("%+v: walk over the torn record: %q", tc, why)
		}
		hits := resumeHits(t, reopen(t, img))
		if _, ok := hits[1]; len(hits) != 1 || !ok {
			t.Fatalf("%+v: resume hit %v, want segment 1 alone", tc, hits)
		}
	}
}

// TestRottedOpenRecordStillOpened rots the open record of a segment with
// a synced snapshot. "Undecodable" must read as "opened": were it taken
// for a never-written segment, the snapshot — and the acknowledged writes
// it covers — would silently fall out of recovery.
func TestRottedOpenRecordStillOpened(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	appendN(t, l, 1, 0, 2)
	mustSync(t, l)
	dev.RotSector(l.segBase(0)*sectorsPerBlock, 0x5A)
	lr := reopen(t, dev)
	sum, ok, err := lr.ReadSummary(0)
	if err != nil || !ok || len(sum.Entries) != 2 {
		t.Fatalf("summary behind a rotted record: %+v ok=%v err=%v, want the two-entry snapshot", sum, ok, err)
	}
	if _, hit := scanHits(t, lr, 0)[0]; !hit {
		t.Fatal("scan skipped the segment whose record rotted")
	}
}

// TestStaleSealedSummaryNeverShadowsSnapshot is the property the deleted
// open-time zeroing write protected. A reused segment's block 0 holds the
// sealed summary of its previous life until the new life's first write
// replaces it with the open record — the same write that lands the first
// payload, ahead of the first snapshot — so from the moment a snapshot of
// the new life is durable, block 0 no longer claims the segment sealed.
func TestStaleSealedSummaryNeverShadowsSnapshot(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	cpSeq := reusedSegment(t, l)

	// Nothing of the new life is on disk yet: the segment still reads as
	// its previous, sealed life — which is what it durably is.
	if sum, ok, err := reopen(t, dev).ReadSummary(0); err != nil || !ok || sum.Seq > cpSeq || len(sum.Entries) != l.PayloadBlocks() {
		t.Fatalf("before the first flush: %d entries at seq %d ok=%v err=%v, want the previous life's sealed summary", len(sum.Entries), sum.Seq, ok, err)
	}
	dev.StartRecording()
	mustSync(t, l)
	for k := 1; k <= dev.Writes(); k++ {
		img, err := dev.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		sum, ok, err := reopen(t, img).ReadSummary(0)
		if err != nil {
			t.Fatal(err)
		}
		if ok && len(sum.Entries) == l.PayloadBlocks() {
			t.Fatalf("after %d writes of the new life the stale sealed summary still answers", k)
		}
		if k == dev.Writes() && (!ok || sum.Seq <= cpSeq || len(sum.Entries) != 2 || sum.Entries[0].Obj != 2) {
			t.Fatalf("after the sync: summary %+v ok=%v, want the new life's two-entry snapshot", sum, ok)
		}
	}
}

// TestFormatWipesTheOldLog formats a device twice. The first time it is
// blank: Format reads block 0 of each segment, finds zeros and writes
// nothing beyond the superblock and the two checkpoint slots — so no
// crash sweep that starts from Format gains a crash point. The second
// time it holds sealed segments and an open one with synced snapshots:
// Format zeroes exactly those segments, and the scan of the result finds
// nothing. Before, Format left the segment area alone and the next open
// replayed every summary of the old log.
func TestFormatWipesTheOldLog(t *testing.T) {
	const sealed = 3
	dev := disk.New(disk.SmallDisk(8<<20), nil)
	cfg := Config{SegBlocks: 16, CheckpointBlocks: 4}
	cnt := &readCounter{Device: dev}
	dev.StartRecording()
	if err := Format(cnt, cfg); err != nil {
		t.Fatal(err)
	}
	l := reopen(t, dev)
	n := int(l.NumSegments())
	if dev.Writes() != 3 || cnt.single != n || cnt.vectored != 0 {
		t.Fatalf("Format of a blank %d-segment device: %d writes, %d one-block and %d vectored reads; want 3, %d and 0",
			n, dev.Writes(), cnt.single, cnt.vectored, n)
	}

	appendN(t, l, 1, 0, sealed*l.PayloadBlocks())
	appendN(t, l, 2, 1000, 2)
	mustSync(t, l)
	appendN(t, l, 2, 2000, 2)
	mustSync(t, l)
	if hits := scanHits(t, reopen(t, dev), 0); len(hits) != sealed+1 {
		t.Fatalf("scan of the used image hit segments %v, want the %d sealed and the open one", hits, sealed)
	}

	before := dev.Writes()
	if err := Format(dev, cfg); err != nil {
		t.Fatal(err)
	}
	if got := dev.Writes() - before; got != 3+sealed+1 {
		t.Fatalf("Format of the used image: %d writes, want 3 and one per used segment (%d)", got, sealed+1)
	}
	lf := reopen(t, dev)
	if hits := scanHits(t, lf, 0); len(hits) != 0 {
		t.Fatalf("scan after Format hit segments %v, want none", hits)
	}
	// The open segment's snapshots sat in its pad slots, past block 0.
	seg := make([]byte, cfg.SegBlocks*BlockSize)
	if err := readBlocks(dev, lf.segBase(sealed), seg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, make([]byte, len(seg))) {
		t.Fatalf("segment %d, open in the old log, is not zero after Format", sealed)
	}
}
