package seglog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
)

// A summary stores each entry at its encoded size (formatVer 7): what a
// sync writes of it depends on what its entries hold. These tests pin
// the two ends: the widest entries still fit block 0, and the entries of
// a typical sync fit one sector.

// decodeSummary parses a candidate summary block: one checkSummary
// accepts and whose entries decode.
func decodeSummary(sb []byte) (Summary, bool, error) {
	h, ok := checkSummary(sb)
	if !ok {
		return Summary{}, false, nil
	}
	s, err := decodeEntries(sb, h)
	return s, err == nil, nil
}

// appendWidest stages n blocks whose summary entries all take their
// widest encoding: the largest object id and key, a time ever
// math.MinInt64 away from the one before, and a one-byte block.
func appendWidest(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := types.Timestamp(math.MinInt64)
		if l.used%2 == 1 {
			ts = 0
		}
		if _, err := l.Append(KindData, math.MaxUint64, math.MaxUint64, ts, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWidestSealFitsBlockZero fills a segment of maxSegBlocks() blocks
// with entries of the widest encoding and seals it: the seal fits the
// bytes of block 0 newestSummary reads (summarySpan) and decodes to
// what was appended. A second such segment takes one snapshot before
// its seal; the seal torn at every sector prefix opens to that
// snapshot. Then a seal whose count or size lies, its CRC made good, is
// refused before the count sizes an allocation.
func TestWidestSealFitsBlockZero(t *testing.T) {
	l, dev := newFaultLog(t, maxSegBlocks())
	p := l.PayloadBlocks()
	if w := len(appendEntry(nil, SummaryEntry{Kind: KindData, Obj: math.MaxUint64, Key: math.MaxUint64, Time: math.MinInt64, Len: 1}, new(types.Timestamp))); w != maxEntrySize {
		t.Fatalf("widest appended entry is %d bytes, maxEntrySize %d", w, maxEntrySize)
	}

	appendWidest(t, l, p) // the last append seals segment 0
	if l.CurrentSegment() >= 0 {
		t.Fatal("a full segment did not seal")
	}
	blk := make([]byte, BlockSize)
	if err := readBlocks(dev, l.segBase(0), blk); err != nil {
		t.Fatal(err)
	}
	h, ok := checkSummary(blk[:l.summarySpan()])
	if !ok || h.count != p || h.size != summaryHeaderSize+p*maxEntrySize {
		t.Fatalf("seal of %d widest entries: ok=%v count=%d size=%d, want %d bytes inside summarySpan %d",
			p, ok, h.count, h.size, summaryHeaderSize+p*maxEntrySize, l.summarySpan())
	}
	t.Logf("%d-block segment: seal of %d widest entries is %d bytes, summarySpan %d", maxSegBlocks(), p, h.size, l.summarySpan())
	sealed, ok, err := l.ReadSummary(0)
	if err != nil || !ok {
		t.Fatalf("sealed summary: ok=%v %v", ok, err)
	}
	for i, e := range sealed.Entries {
		want := types.Timestamp(math.MinInt64)
		if i%2 == 1 {
			want = 0
		}
		if e.Kind != KindData || e.Obj != math.MaxUint64 || e.Key != math.MaxUint64 || e.Time != want || e.Len != 1 || e.Sum == 0 {
			t.Fatalf("entry %d decodes to %+v", i, e)
		}
	}

	// Segment 1: a snapshot, then the seal, torn.
	appendWidest(t, l, p-2)
	mustSync(t, l)
	seg := l.CurrentSegment()
	before, ok, err := l.ReadSummary(seg) // the staged entries: the snapshot's and its pad
	if err != nil || !ok || len(before.Entries) != p-1 {
		t.Fatalf("before the seal: %d entries ok=%v %v, want %d", len(before.Entries), ok, err, p-1)
	}
	dev.StartRecording()
	appendWidest(t, l, 1)
	k := dev.Writes() - 1
	w := dev.Record(k)
	if w.Sector != l.segBase(seg)*sectorsPerBlock || w.Sectors()*disk.SectorSize > l.summarySpan() {
		t.Fatalf("last write of the seal: sectors %d+%d, want block 0 of segment %d within %d bytes", w.Sector, w.Sectors(), seg, l.summarySpan())
	}
	for keep := 0; keep <= w.Sectors(); keep++ {
		img, err := dev.TornImageAt(k, keep)
		if keep == w.Sectors() {
			img, err = dev.ImageAt(k + 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		sum, ok, err := reopen(t, img).ReadSummary(seg)
		wantN, wantSeq := p-2, before.Seq
		if keep == w.Sectors() {
			wantN, wantSeq = p, before.Seq+1
		}
		if err != nil || !ok || len(sum.Entries) != wantN || sum.Seq != wantSeq {
			t.Fatalf("keep=%d of %d: %d entries at seq %d (ok=%v %v), want %d at seq %d",
				keep, w.Sectors(), len(sum.Entries), sum.Seq, ok, err, wantN, wantSeq)
		}
	}

	// Lies, each with its CRC made good so that only the bounds stand
	// between it and the decoder.
	forge := func(off int, v uint32) []byte {
		b := append([]byte(nil), blk...)
		binary.LittleEndian.PutUint32(b[off:], v)
		if n := binary.LittleEndian.Uint32(b[36:]); n >= 20 && n <= BlockSize {
			binary.LittleEndian.PutUint32(b[16:], crc32.Update(crc32.ChecksumIEEE(b[:16]), crc32.IEEETable, b[20:n]))
		}
		return b
	}
	for _, c := range []struct {
		name string
		sb   []byte
	}{
		{"count 2^20", forge(12, 1<<20)},
		{"count 0xFFFFFFFF", forge(12, math.MaxUint32)},
		{"count one short", forge(12, uint32(p-1))},
		{"count one over", forge(12, uint32(p+1))},
		{"size 0xFFFFFFFF", forge(36, math.MaxUint32)},
		{"size past the block", forge(36, BlockSize+1)},
		{"size inside the header", forge(36, summaryHeaderSize-1)},
		{"size one entry short", forge(36, uint32(h.size-maxEntrySize))},
		{"size one byte over", forge(36, uint32(h.size+1))},
	} {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, ok, err := decodeSummary(c.sb)
		runtime.ReadMemStats(&m1)
		kib := (m1.TotalAlloc - m0.TotalAlloc) >> 10
		t.Logf("%s: %d KiB allocated", c.name, kib)
		if ok || err != nil || kib >= 64 {
			t.Fatalf("%s: ok=%v err=%v after %d KiB allocated, want refused under 64 KiB", c.name, ok, err, kib)
		}
	}
}

// TestSyncSnapshotIsOneSector fills a 64-block segment the way an NFS
// sync under PostMark does: each sync appends a few data blocks of one
// object at consecutive keys, a journal block and an audit block, 1 ms
// apart, and its snapshot retires one slot with a pad. Every snapshot
// of up to 40 entries is one sector, and the seal at most two. With
// 33-byte entries the snapshots grew to five sectors and the seal was
// five.
func TestSyncSnapshotIsOneSector(t *testing.T) {
	wl := &writeLog{Device: disk.New(disk.SmallDisk(8<<20), nil)}
	if err := Format(wl, Config{SegBlocks: 64, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(wl)
	if err != nil {
		t.Fatal(err)
	}
	now := types.TS(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tick := func() types.Timestamp { now += types.Timestamp(time.Millisecond); return now }
	block := make([]byte, BlockSize)
	const obj = types.ObjectID(4711)
	key, auditSeq := uint64(0), uint64(90_000)
	var snapshots int
	for sync := 0; l.Room() >= 1+sync%3+3; sync++ { // the sync's blocks, its pad and one slot more
		for i := 0; i < 1+sync%3; i++ {
			if _, err := l.Append(KindData, obj, key, tick(), block); err != nil {
				t.Fatal(err)
			}
			key++
		}
		if _, err := l.Append(KindJournal, types.NoObject, 0, tick(), block[:(1+sync%8)*disk.SectorSize]); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(KindAudit, types.AuditObject, auditSeq, tick(), block); err != nil {
			t.Fatal(err)
		}
		auditSeq += 7
		entries := len(l.entries)
		wl.writes = nil
		mustSync(t, l)
		if w := wl.writes[len(wl.writes)-1]; entries <= 40 && w[1]-w[0] != 1 {
			t.Fatalf("snapshot of %d entries took %d sectors, want one", entries, w[1]-w[0])
		}
		snapshots++
	}
	seg := l.CurrentSegment()
	wl.writes = nil
	for l.CurrentSegment() == seg { // the append that fills the segment seals it
		if _, err := l.Append(KindData, obj, key, tick(), block); err != nil {
			t.Fatal(err)
		}
		key++
	}
	w := wl.writes[len(wl.writes)-1]
	if w[0] != l.segBase(seg)*sectorsPerBlock || w[1]-w[0] > 2 {
		t.Fatalf("seal of segment %d wrote sectors %v, want at most two at %d", seg, w, l.segBase(seg)*sectorsPerBlock)
	}
	t.Logf("%d snapshots of one sector, a seal of %d", snapshots, w[1]-w[0])
	if snapshots < 10 {
		t.Fatalf("only %d snapshots before the seal", snapshots)
	}
}

// TestUndecodableSummaryIsRefused forges a seal whose CRC holds but
// whose entries do not decode: its last entry's kind byte says pad, so
// the entry's fields are left over as trailing bytes. No tear makes such
// a block; only a forgery or a bug. The chain walk must not take it (it
// falls back to probing), the probe must refuse the open with
// ErrCorrupt rather than open without the segment, and ReadSummary and
// verified reads must find no summary in it.
func TestUndecodableSummaryIsRefused(t *testing.T) {
	l, dev := newFaultLog(t, 16)
	appendN(t, l, 1, 0, 3)
	mustSync(t, l)
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3, l.Room()) // seals segment 0 after the checkpoint
	blk := make([]byte, BlockSize)
	if err := readBlocks(dev, l.segBase(0), blk); err != nil {
		t.Fatal(err)
	}
	h, ok := checkSummary(blk)
	if !ok || h.count != l.PayloadBlocks() {
		t.Fatalf("segment 0 not sealed: ok=%v count=%d", ok, h.count)
	}
	last := h.size - 1 - 4 - 2 - 1 - 1 - 1 // the last entry's kind: then Sum, a 2-byte slack (Len 64) and three 1-byte varints
	if Kind(blk[last]) != KindData {
		t.Fatalf("byte %d is %d, want the last entry's kind", last, blk[last])
	}
	blk[last] = byte(KindPad)
	binary.LittleEndian.PutUint32(blk[16:], summaryCRC(blk))
	if err := writeBlocks(dev, l.segBase(0), blk); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := decodeSummary(blk); ok {
		t.Fatal("the forged summary decodes")
	}

	lr := reopen(t, dev)
	_, _, seq, _, err := lr.ReadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if why := walkWhy(t, dev); why == "" {
		t.Fatal("the chain walk took the forged summary")
	}
	if err := lr.ScanFrom(seq, func(int64, Summary, []byte) error { return nil }); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("scan over the forged summary: %v, want ErrCorrupt", err)
	}
	lr = reopen(t, dev)
	if _, ok, err := lr.ReadSummary(0); ok || err != nil {
		t.Fatalf("ReadSummary of the forged segment: ok=%v err=%v, want no summary", ok, err)
	}
	if n, err := lr.Covered(0); n != 0 || err != nil {
		t.Fatalf("the forged segment covers %d blocks (%v), want none", n, err)
	}
}
