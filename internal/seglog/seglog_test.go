package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

func newLog(t *testing.T, capacity int64) (*Log, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.SmallDisk(capacity), vclock.NewVirtual())
	cfg := Config{SegBlocks: 16, CheckpointBlocks: 4}
	if err := Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func TestFormatOpen(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	if l.Config().SegBlocks != 16 {
		t.Fatalf("config = %+v", l.Config())
	}
	if l.NumSegments() < 4 {
		t.Fatalf("segments = %d", l.NumSegments())
	}
	if l.FreeSegments() != l.NumSegments() {
		t.Fatal("fresh log must have all segments free")
	}
}

func TestFormatRejectsBadConfig(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(d, Config{SegBlocks: 2, CheckpointBlocks: 4}); err == nil {
		t.Fatal("tiny SegBlocks accepted")
	}
	if err := Format(d, Config{SegBlocks: 100000, CheckpointBlocks: 4}); err == nil {
		t.Fatal("oversized SegBlocks accepted")
	}
	tiny := disk.New(disk.SmallDisk(64<<10), nil)
	if err := Format(tiny, Config{SegBlocks: 16, CheckpointBlocks: 4}); err == nil {
		t.Fatal("too-small device accepted")
	}
}

func TestOpenRejectsUnformatted(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if _, err := Open(d); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("open of unformatted device: %v", err)
	}
}

// TestBlank: a daemon formats an image only when Blank says it was never
// formatted. A failed read of sector 0 must be an error, with nothing
// written, or one EIO at start-up would wipe every version the image
// holds.
func TestBlank(t *testing.T) {
	eio := errors.New("injected EIO")
	for _, tc := range []struct {
		name      string
		formatted bool
		fail      bool
		want      bool
	}{
		{name: "formatted", formatted: true},
		{name: "zero", want: true},
		{name: "read error", formatted: true, fail: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd, err := disk.OpenFile(t.TempDir()+"/blank.img", 8<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer fd.Close()
			if tc.formatted {
				if err := Format(fd, Config{SegBlocks: 16, CheckpointBlocks: 4}); err != nil {
					t.Fatal(err)
				}
			}
			wl := &writeLog{Device: fd}
			dev := disk.NewInjector(wl)
			if tc.fail {
				dev.FailAfter(0, eio)
			}
			blank, err := Blank(dev)
			if tc.fail {
				if !errors.Is(err, eio) || blank {
					t.Fatalf("Blank over a failed read = %v, %v; want the read's error", blank, err)
				}
			} else if err != nil || blank != tc.want {
				t.Fatalf("Blank = %v, %v; want %v", blank, err, tc.want)
			}
			if len(wl.writes) != 0 {
				t.Fatalf("Blank wrote %v", wl.writes)
			}
			if tc.formatted {
				if _, err := Open(fd); err != nil {
					t.Fatalf("image no longer opens: %v", err)
				}
			}
		})
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	data := bytes.Repeat([]byte{0xAB}, 1000)
	addr, err := l.Append(KindData, 42, 7, 100, data)
	if err != nil {
		t.Fatal(err)
	}
	if addr == NilAddr {
		t.Fatal("nil address returned")
	}
	got := make([]byte, 1000)
	if err := l.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("staged read mismatch")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("durable read mismatch")
	}
}

func TestAppendValidation(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	if _, err := l.Append(KindData, 1, 0, 0, nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := l.Append(KindData, 1, 0, 0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if _, err := l.Append(KindPad, 1, 0, 0, []byte{1}); err == nil {
		t.Fatal("append of a pad accepted: its summary entry would drop every field but the kind")
	}
}

func TestSegmentRollover(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	payload := l.PayloadBlocks()
	addrs := make([]BlockAddr, 0, payload*3)
	for i := 0; i < payload*3; i++ {
		a, err := l.Append(KindData, 1, uint64(i), types.Timestamp(i), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if l.FreeSegments() > l.NumSegments()-3 {
		t.Fatalf("expected at least 3 segments consumed, free=%d of %d", l.FreeSegments(), l.NumSegments())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		got := make([]byte, 1)
		if err := l.Read(a, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d = %#x, want %#x", i, got[0], byte(i))
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindJournal, types.ObjectID(i+10), uint64(i*3), types.Timestamp(1000+i), []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Segment sealed; its summary must decode from disk.
	sum, ok, err := l.ReadSummary(0)
	if err != nil || !ok {
		t.Fatalf("summary not readable: ok=%v err=%v", ok, err)
	}
	if len(sum.Entries) != l.PayloadBlocks() {
		t.Fatalf("entries = %d, want %d", len(sum.Entries), l.PayloadBlocks())
	}
	for i, e := range sum.Entries {
		want := SummaryEntry{Kind: KindJournal, Obj: types.ObjectID(i + 10), Key: uint64(i * 3), Time: types.Timestamp(1000 + i), Len: 3}
		if e.Sum == 0 {
			t.Fatalf("entry %d carries no block checksum", i)
		}
		want.Sum = e.Sum
		if e != want {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
	}
}

func TestPartialSyncThenMoreAppends(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	a1, _ := l.Append(KindData, 1, 0, 1, []byte("one"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	a2, _ := l.Append(KindData, 1, 1, 2, []byte("two"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Both blocks in the same (still open) segment.
	if l.SegOf(a1) != l.SegOf(a2) {
		t.Fatal("partial sync must not seal the segment")
	}
	// Each partial flush retires its snapshot slot with a pad entry so
	// later appends cannot overwrite the last durable summary.
	sum, ok, err := l.ReadSummary(l.SegOf(a1))
	if err != nil || !ok {
		t.Fatalf("summary after partial syncs: ok=%v err=%v", ok, err)
	}
	var kinds []Kind
	for _, e := range sum.Entries {
		kinds = append(kinds, e.Kind)
	}
	want := []Kind{KindData, KindPad, KindData, KindPad}
	if len(kinds) != len(want) {
		t.Fatalf("summary entries = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("summary entries = %v, want %v", kinds, want)
		}
	}
	// Redundant sync is a no-op.
	_, before := l.Stats()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, after := l.Stats(); after != before {
		t.Fatal("no-op sync wrote to disk")
	}
}

func TestFreeAndReuseSegment(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	for i := 0; i < l.PayloadBlocks(); i++ { // fill & seal segment 0
		if _, err := l.Append(KindData, 1, uint64(i), 0, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	free := l.FreeSegments()
	if err := l.FreeSegment(0); err != nil {
		t.Fatal(err)
	}
	if l.FreeSegments() != free+1 {
		t.Fatal("free count did not increase")
	}
	if err := l.FreeSegment(0); err != nil {
		t.Fatal(err) // idempotent
	}
	if l.FreeSegments() != free+1 {
		t.Fatal("double free counted twice")
	}
}

func TestCannotFreeOpenSegment(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	a, _ := l.Append(KindData, 1, 0, 0, []byte{1})
	if err := l.FreeSegment(l.SegOf(a)); err == nil {
		t.Fatal("freed the open segment")
	}
}

func TestDeviceFullAfterAllSegmentsUsed(t *testing.T) {
	l, _ := newLog(t, 1<<20) // tiny device
	var err error
	for i := 0; i < int(l.NumSegments())*l.PayloadBlocks()+1; i++ {
		_, err = l.Append(KindData, 1, uint64(i), 0, []byte{1})
		if err != nil {
			break
		}
	}
	if !errors.Is(err, types.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	if _, _, _, ok, err := l.ReadCheckpoint(); err != nil || ok {
		t.Fatalf("fresh device must have no checkpoint: ok=%v err=%v", ok, err)
	}
	blob1 := bytes.Repeat([]byte("alpha"), 100)
	if err := l.WriteCheckpoint(blob1, nil); err != nil {
		t.Fatal(err)
	}
	blob2 := bytes.Repeat([]byte("beta"), 2000) // multi-block
	if err := l.WriteCheckpoint(blob2, nil); err != nil {
		t.Fatal(err)
	}
	got, idx, _, ok, err := l.ReadCheckpoint()
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if !bytes.Equal(got, blob2) {
		t.Fatal("checkpoint must return the newest blob")
	}
	if idx != nil {
		t.Fatal("no index was written; read must return nil")
	}
	// Oversized checkpoint rejected.
	if err := l.WriteCheckpoint(make([]byte, l.Config().CheckpointBlocks*BlockSize), nil); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized checkpoint: %v", err)
	}
	if err := l.WriteCheckpoint(make([]byte, l.CheckpointCapacity()), []byte{1}); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized checkpoint+index: %v", err)
	}
}

func TestCheckpointIndexRoundTrip(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	state := bytes.Repeat([]byte("state"), 300)
	index := bytes.Repeat([]byte("index"), 700) // crosses a block boundary
	if err := l.WriteCheckpoint(state, index); err != nil {
		t.Fatal(err)
	}
	gotState, gotIndex, _, ok, err := l.ReadCheckpoint()
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if !bytes.Equal(gotState, state) || !bytes.Equal(gotIndex, index) {
		t.Fatal("state/index round trip mismatch")
	}
}

// TestCheckpointIndexTornDegradesToNil tears a checkpoint write inside
// the index region: the state blob (which lands first in the slot)
// survives its CRC, so the slot must stay valid with index == nil — the
// degrade-to-full-replay contract, never a rejected anchor.
func TestCheckpointIndexTornDegradesToNil(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(d, Config{SegBlocks: 16, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	state := bytes.Repeat([]byte{0xAA}, 200)
	index := bytes.Repeat([]byte{0xBB}, 3000)
	// The slot write is one WriteSectors call; keep only the first block
	// (8 sectors) so the header+state land but the index tail is lost.
	d.TearAfter(0, (cpHeaderSize+len(state))/disk.SectorSize+1)
	if err := l.WriteCheckpoint(state, index); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	gotState, gotIndex, _, ok, err := l2.ReadCheckpoint()
	if err != nil || !ok {
		t.Fatalf("torn index must not invalidate the slot: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(gotState, state) {
		t.Fatal("state blob corrupted")
	}
	if gotIndex != nil {
		t.Fatal("torn index must read back as nil")
	}
}

// TestPartialFlushCrashKeepsPriorSync crashes the device at every
// write boundary of a run of append+Sync rounds and checks that the
// recovered summaries still cover everything the last completed Sync
// acknowledged. This is the regression test for the partial-flush
// ordering bug: before snapshot slots were retired with pad entries,
// the first append after a sync overwrote the only durable summary,
// and a crash before the next snapshot landed lost every acked entry
// of the open segment.
func TestPartialFlushCrashKeepsPriorSync(t *testing.T) {
	fd := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(fd, Config{SegBlocks: 16, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(fd)
	if err != nil {
		t.Fatal(err)
	}
	fd.StartRecording()

	type mark struct{ writes, acked int }
	var marks []mark
	appended := 0
	for r := 0; r < 12; r++ { // spans several segments (pads included)
		for i := 0; i < 2; i++ {
			data := bytes.Repeat([]byte{byte(appended + 1)}, 100)
			if _, err := l.Append(KindData, 1, uint64(appended), types.Timestamp(appended), data); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{writes: fd.Writes(), acked: appended})
	}

	total := fd.Writes()
	for k := 0; k <= total; k++ {
		img, err := fd.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := Open(img)
		if err != nil {
			t.Fatalf("crash@%d: reopen: %v", k, err)
		}
		seen := make(map[uint64]bool)
		buf := make([]byte, BlockSize)
		for seg := int64(0); seg < lr.NumSegments(); seg++ {
			sum, ok, err := lr.ReadSummary(seg)
			if err != nil || !ok {
				continue
			}
			for i, e := range sum.Entries {
				if e.Kind != KindData {
					continue
				}
				if err := lr.Read(lr.EntryAt(seg, i), buf); err != nil {
					t.Fatalf("crash@%d: data entry %d unreadable: %v", k, e.Key, err)
				}
				if e.Len != 100 || buf[0] != byte(e.Key+1) || buf[99] != byte(e.Key+1) {
					t.Fatalf("crash@%d: data entry %d corrupt (len %d, byte %#x)", k, e.Key, e.Len, buf[0])
				}
				seen[e.Key] = true
			}
		}
		want := 0
		for _, m := range marks {
			if m.writes <= k {
				want = m.acked
			}
		}
		for key := 0; key < want; key++ {
			if !seen[uint64(key)] {
				t.Fatalf("crash@%d: acked entry %d missing from recovered summaries (%d acked, %d recovered)",
					k, key, want, len(seen))
			}
		}
	}
}

func TestCheckpointTornSlotFallsBack(t *testing.T) {
	// A crash can tear the checkpoint write mid-transfer. The torn slot
	// fails its CRC and recovery must fall back to the older slot, not
	// error out — that is what the alternating slots are for. The blob of
	// the older slot is read only then: with both slots valid, the newer
	// one's blob is the only one read, and never its header sector again.
	// The blobs are over two blocks each, so the two header-sector reads
	// stand apart from the multi-block reads of the rest.
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(d, Config{SegBlocks: 16, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("old"), 3000)
	if err := l.WriteCheckpoint(old, nil); err != nil {
		t.Fatal(err)
	}
	// Tear the very next write (the second checkpoint) after one sector.
	d.TearAfter(0, 1)
	if err := l.WriteCheckpoint(bytes.Repeat([]byte("new"), 3000), nil); err != nil {
		t.Fatal(err)
	}
	// read opens the log on a read counter and checks what its
	// checkpoint read cost: two header reads and blobs blob reads.
	read := func(blobs int) (*Log, []byte) {
		t.Helper()
		cnt := &readCounter{Device: d}
		l, err := Open(cnt)
		if err != nil {
			t.Fatal(err)
		}
		*cnt = readCounter{Device: d}
		got, _, _, ok, err := l.ReadCheckpoint()
		if err != nil || !ok {
			t.Fatalf("ReadCheckpoint: ok=%v err=%v", ok, err)
		}
		// Every blob below is 9,000 B: the rest of its slot past the
		// header sector, in whole sectors.
		rest := (cpHeaderSize+9000+disk.SectorSize-1)/disk.SectorSize*disk.SectorSize - disk.SectorSize
		if want := int64(2*disk.SectorSize + blobs*rest); cnt.single != 2 || cnt.vectored != blobs || cnt.bytes != want {
			t.Fatalf("ReadCheckpoint read %d headers and %d blobs, %d B, want 2 and %d, %d B", cnt.single, cnt.vectored, cnt.bytes, blobs, want)
		}
		return l, got
	}
	l2, got := read(2)
	if !bytes.Equal(got, old) {
		t.Fatal("torn checkpoint must fall back to the surviving slot")
	}
	// Both slots valid: the newer wins on its blob alone.
	newer := bytes.Repeat([]byte("newer"), 1800)
	if err := l2.WriteCheckpoint(newer, nil); err != nil {
		t.Fatal(err)
	}
	if _, got := read(1); !bytes.Equal(got, newer) {
		t.Fatal("with both slots valid the newer checkpoint must win")
	}
	// Both slots torn: no checkpoint, but still no error.
	d.TearAfter(0, 1)
	if err := l2.WriteCheckpoint(bytes.Repeat([]byte("x"), 500), nil); err != nil {
		t.Fatal(err)
	}
	d.TearAfter(0, 1)
	if err := l2.WriteCheckpoint(bytes.Repeat([]byte("y"), 500), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok, err := l2.ReadCheckpoint(); err != nil || ok {
		t.Fatalf("doubly-torn checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestRecoveryScanFrom(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), vclock.NewVirtual())
	if err := Format(d, Config{SegBlocks: 16, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	// Write one sealed segment, checkpoint, then one more sealed segment.
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindData, 1, uint64(i), 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	cpSeq := l.Seq()
	for i := 0; i < l.PayloadBlocks(); i++ {
		if _, err := l.Append(KindData, 2, uint64(i), 0, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": reopen from the same device.
	l2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, seq, ok, err := l2.ReadCheckpoint()
	if err != nil || !ok || string(blob) != "state" || seq != cpSeq {
		t.Fatalf("checkpoint after reopen: %q seq=%d ok=%v err=%v", blob, seq, ok, err)
	}
	var post []types.ObjectID
	err = l2.ScanFrom(seq, func(seg int64, sum Summary, _ []byte) error {
		for _, e := range sum.Entries {
			post = append(post, e.Obj)
		}
		l2.MarkAllocated(seg)
		l2.SetSeq(sum.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != l.PayloadBlocks() {
		t.Fatalf("replayed %d entries, want %d", len(post), l.PayloadBlocks())
	}
	for _, o := range post {
		if o != 2 {
			t.Fatalf("replayed pre-checkpoint entry for %v", o)
		}
	}
}

func TestScanOrderIsSeqOrder(t *testing.T) {
	l, _ := newLog(t, 8<<20)
	// Seal three segments.
	for s := 0; s < 3; s++ {
		for i := 0; i < l.PayloadBlocks(); i++ {
			if _, err := l.Append(KindData, types.ObjectID(s+1), 0, 0, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var seqs []uint64
	if err := l.ScanFrom(0, func(seg int64, sum Summary, _ []byte) error {
		seqs = append(seqs, sum.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("scanned %d segments, want 3", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatal("scan not in sequence order")
		}
	}
}

func TestSequentialWritePattern(t *testing.T) {
	// The whole point of log structure: many small appends must produce
	// few, large disk writes.
	clk := vclock.NewVirtual()
	d := disk.New(disk.SmallDisk(8<<20), clk)
	if err := Format(d, Config{SegBlocks: 64, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	n := 63 * 4 // four full segments worth of appends
	for i := 0; i < n; i++ {
		if _, err := l.Append(KindData, 1, uint64(i), 0, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Writes > 8 { // 2 disk writes per sealed segment (summary + payload)
		t.Fatalf("%d appends caused %d disk writes; log must batch", n, s.Writes)
	}
}

func TestPropertyRandomAppendsReadBack(t *testing.T) {
	l, _ := newLog(t, 16<<20)
	rnd := rand.New(rand.NewSource(7))
	type rec struct {
		addr BlockAddr
		data []byte
	}
	var recs []rec
	f := func(sz uint16, syncIt bool) bool {
		n := int(sz)%BlockSize + 1
		data := make([]byte, n)
		rnd.Read(data)
		addr, err := l.Append(KindData, 9, uint64(len(recs)), 0, data)
		if err != nil {
			return false
		}
		recs = append(recs, rec{addr, data})
		if syncIt {
			if err := l.Sync(); err != nil {
				return false
			}
		}
		// Read back a random earlier record.
		r := recs[rnd.Intn(len(recs))]
		got := make([]byte, len(r.data))
		if err := l.Read(r.addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, r.data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "data", KindInode: "inode", KindJournal: "journal",
		KindImap: "imap", KindAudit: "audit", KindDelta: "delta",
		Kind(99): fmt.Sprintf("kind(%d)", 99),
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestReadRun covers the vectored read path in every staging state:
// run wholly in the open segment's buffer, run settled on the device
// (one I/O, counted), and the argument errors — empty run, short
// buffer, summary address, a run spanning segments, and a run that
// starts in the open segment's staged fill and ends past it.
func TestReadRun(t *testing.T) {
	l, d := newLog(t, 8<<20)
	const n = 5
	blocks := make([][]byte, n)
	addrs := make([]BlockAddr, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(0x10 + i)}, BlockSize)
		a, err := l.Append(KindData, 1, uint64(i+1), 100, blocks[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	for i := 1; i < n; i++ {
		if addrs[i] != addrs[0]+BlockAddr(i) {
			t.Fatalf("appends not contiguous: %v", addrs)
		}
	}
	check := func(lg *Log, label string) {
		t.Helper()
		buf := make([]byte, n*BlockSize)
		if err := lg.ReadRun(addrs[0], n, buf); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range blocks {
			if !bytes.Equal(buf[i*BlockSize:(i+1)*BlockSize], blocks[i]) {
				t.Fatalf("%s: block %d content mismatch", label, i)
			}
		}
	}
	check(l, "staged")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	check(l, "synced")

	// A freshly opened log has no staging state: the run must come off
	// the device in exactly one (vectored) I/O.
	l2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	dev0, vec0 := l2.ReadStats()
	check(l2, "durable")
	dev1, vec1 := l2.ReadStats()
	if dev1-dev0 != 1 || vec1-vec0 != 1 {
		t.Fatalf("durable run cost %d device reads (%d vectored), want 1 (1)",
			dev1-dev0, vec1-vec0)
	}

	buf := make([]byte, n*BlockSize)
	if err := l2.ReadRun(addrs[0], 0, buf); err == nil {
		t.Fatal("empty run accepted")
	}
	if err := l2.ReadRun(addrs[0], 2, buf[:BlockSize]); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := l2.ReadRun(addrs[0]-1, 1, buf); err == nil {
		t.Fatal("summary-block address accepted")
	}
	span := l2.Config().SegBlocks
	if err := l2.ReadRun(addrs[0], span, make([]byte, span*BlockSize)); err == nil {
		t.Fatal("cross-segment run accepted")
	}
	if err := l.ReadRun(addrs[0], l.PayloadBlocks(), make([]byte, l.PayloadBlocks()*BlockSize)); !errors.Is(err, types.ErrInval) {
		t.Fatalf("run past the staged fill: %v, want ErrInval", err)
	}
}
