package core

import (
	"bytes"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// What an open reads now that the log is threaded (DESIGN.md §14.5): the
// segments written since the checkpoint, each summary once, and nothing
// of a segment the chain no longer runs through.

// readLog records the block range and the sector range of every device
// read under it.
type readLog struct {
	disk.Device
	reads   [][2]int64 // [first, end) blocks
	sectors [][2]int64 // [first, end) sectors
}

func (r *readLog) ReadSectors(sector int64, buf []byte) error {
	const spb = types.BlockSize / disk.SectorSize
	r.reads = append(r.reads, [2]int64{sector / spb, (sector*disk.SectorSize + int64(len(buf)) + types.BlockSize - 1) / types.BlockSize})
	r.sectors = append(r.sectors, [2]int64{sector, sector + int64(len(buf)/disk.SectorSize)})
	return r.Device.ReadSectors(sector, buf)
}

// segBase is the first block of segment seg under opts' geometry.
func segBase(opts Options, seg int64) int64 {
	return int64(1+2*opts.CheckpointBlocks) + seg*int64(opts.SegBlocks)
}

// tailImage leaves a crash image on e's device: four objects patched 40
// times before a checkpoint and 120 times after it, synced every third
// patch, a tail a dozen segments long, and the drive abandoned, not
// closed.
func tailImage(t *testing.T) *testEnv {
	e := newTestDrive(t)
	ids := make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
	}
	patch := func(v int) {
		e.write(alice, ids[v%len(ids)], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
	}
	for v := 0; v < 40; v++ {
		patch(v)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := 40; v < 160; v++ {
		patch(v)
		if v%3 == 2 {
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	return e
}

// openLogged opens e's device as it stands, on the segment index or on
// the empty base, recording every device read.
func openLogged(t *testing.T, e *testEnv, emptyBase bool) (*Drive, *readLog) {
	t.Helper()
	rl := &readLog{Device: e.dev}
	opts := e.d.opts
	opts.Clock = vclock.NewVirtualAt(e.d.Now().Time())
	opts.DisableSegIndex = emptyBase
	d, err := Open(rl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, rl
}

// TestIndexedOpenReadsEachSummaryOnce opens a crash image with a synced
// tail a dozen segments long and counts the reads of each segment's
// block 0. The roll-forward scan reads those of the segments written
// since the checkpoint and hands what it decoded on: the entry counts the
// usage rebuild checks coverage against (recCovered) and the checksum
// tables the replay's verified reads need. Before, each of those read
// the block again — the tail's usage rebuild once more for every segment
// the scan had just decoded.
func TestIndexedOpenReadsEachSummaryOnce(t *testing.T) {
	e := tailImage(t)
	d, rl := openLogged(t, e, false)
	opts := d.opts
	if st := d.GetStats(); st.IndexLoads != 1 || st.RecoveryReplayEntries == 0 {
		t.Fatalf("open: IndexLoads=%d replayed %d entries, want an indexed open of a tail", st.IndexLoads, st.RecoveryReplayEntries)
	}
	read := 0
	for seg := int64(0); seg < d.log.NumSegments(); seg++ {
		n := 0
		for _, r := range rl.reads {
			if r[0] == segBase(opts, seg) {
				n++
			}
		}
		if n > 1 {
			t.Errorf("segment %d: block 0 read %d times", seg, n)
		}
		read += n
	}
	t.Logf("%d reads in all, %d of a segment's block 0, of %d segments", len(rl.reads), read, d.log.NumSegments())
	if read < 10 {
		t.Fatalf("block 0 of only %d segments read; the tail should span a dozen", read)
	}
}

// TestOpenReadsEachTailBlockOnce opens the image above on both bases and
// counts the reads of every sector. The roll-forward scan hands the usage
// rebuild the sectors it decoded (recSectors), so the rebuild's chain
// walks read no tail journal block again; before, 16 of the 53 blocks
// an indexed open read (of 55 from the empty base) were read twice.
// ReadCheckpoint reads a slot's blob from the sector after its header,
// whose bytes the header pass holds; before, it read block 1, the first
// slot's header, twice. And the scan, which finds the newest summary
// snapshot of the segment open at the crash by reading its payload in
// one vectored read, replays that segment's journal block from those
// bytes; before, it read the block again. Reads shorter than a block (a
// header sector, a summary, a block up to its Len) count by the sector:
// no sector is read twice.
//
// The hand-off changes no count: the entries recovery examines
// (RecoveryReplayEntries) are those of the walks that used to decode.
func TestOpenReadsEachTailBlockOnce(t *testing.T) {
	e := tailImage(t)
	var digests []string
	for _, emptyBase := range []bool{false, true} {
		d, rl := openLogged(t, e, emptyBase)
		if n := d.GetStats().RecoveryReplayEntries; n != 358 {
			t.Errorf("empty base %v: %d journal entries examined, want 358", emptyBase, n)
		}
		const spb = types.BlockSize / disk.SectorSize
		reads, blocks := make(map[int64]int), make(map[int64]bool)
		for _, r := range rl.sectors {
			for s := r[0]; s < r[1]; s++ {
				reads[s]++
				blocks[s/spb] = true
			}
		}
		var again []int64
		for s, n := range reads {
			if n > 1 {
				again = append(again, s)
				t.Errorf("empty base %v: sector %d (block %d) read %d times", emptyBase, s, s/spb, n)
			}
		}
		t.Logf("empty base %v: %d reads of %d sectors in %d blocks; read more than once: %v", emptyBase, len(rl.sectors), len(reads), len(blocks), again)
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d.StateDigest())
	}
	if digests[0] != digests[1] {
		t.Fatalf("the two bases recovered different states:\n%s\n--\n%s", digests[0], digests[1])
	}
}

// TestTruncatedSectorHandedOverTruncated takes every crash image in which
// the crash cut a flush after its in-place journal rewrite, so the scan's
// vetSector truncates a tail sector, and the usage rebuild walks that
// sector as the scan handed it over. Opened on either base, each image
// must recover one state, hold every invariant, read back every version
// a Sync acknowledged, and count the history a recount of the log finds.
// Handing over the entries as decoded, before the cut, fails the
// invariant check and the recount (EXPERIMENTS.md).
func TestTruncatedSectorHandedOverTruncated(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(32<<20), nil)
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
	}
	d, err := Format(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, clk: clk}
	ids := make([]types.ObjectID, 6)
	for i := range ids {
		ids[i] = e.create(alice)
	}
	for r := 0; r < 6; r++ {
		for _, id := range ids {
			e.write(alice, id, 0, blockPattern(r))
		}
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	type version struct {
		id    types.ObjectID
		at    types.Timestamp
		round int
		acked int // device writes when its Sync returned
	}
	var versions []version
	rec.StartRecording()
	for r := 6; r < 14; r++ {
		for _, id := range ids {
			at := d.Now()
			e.write(alice, id, 0, blockPattern(r))
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			versions = append(versions, version{id, at, r, rec.Writes()})
		}
	}
	end := d.Now()
	// open opens a pristine copy of crash image k on one base.
	open := func(k int, emptyBase bool) (*Drive, disk.Device, Options) {
		img, err := rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Clock = vclock.NewVirtualAt(end.Time())
		o.DisableSegIndex = emptyBase
		got, err := Open(img, o)
		if err != nil {
			t.Fatalf("crash@%d, empty base %v: %v", k, emptyBase, err)
		}
		return got, img, o
	}
	truncated := 0
	for k := 0; k <= rec.Writes(); k++ {
		var digests []string
		for _, emptyBase := range []bool{false, true} {
			got, img, o := open(k, emptyBase)
			if got.GetStats().RecoveryTruncations == 0 {
				if emptyBase {
					t.Fatalf("crash@%d: only the indexed open truncated", k)
				}
				break
			}
			digests = append(digests, got.StateDigest())
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("crash@%d, empty base %v: %v", k, emptyBase, err)
			}
			for _, v := range versions {
				if v.acked > k {
					break
				}
				b, err := got.Read(alice, v.id, 0, types.BlockSize, v.at)
				if err != nil || !bytes.Equal(b, blockPattern(v.round)) {
					t.Fatalf("crash@%d, empty base %v: %v as of round %d: %v; the acknowledged version did not read back", k, emptyBase, v.id, v.round, err)
				}
			}
			o.DisableSegIndex = true
			recountHistory(t, got, img, o)
		}
		if len(digests) == 0 {
			continue
		}
		truncated++
		if digests[0] != digests[1] {
			t.Fatalf("crash@%d: the two bases recovered different states:\n%s\n--\n%s", k, digests[0], digests[1])
		}
	}
	if truncated == 0 {
		t.Fatal("no crash image had a tail sector to truncate; the test covered nothing")
	}
	t.Logf("%d of %d crash images had a tail sector to truncate", truncated, rec.Writes()+1)
}

// TestAbandonedSegmentLeavesTheChain crashes with a segment partly filled
// and synced, recovers, checkpoints and crashes again. The abandoned
// segment still holds live data, and it still carries its open record:
// an open that read block 0 of every segment found the record and read
// the other 15 blocks behind it, at every open until the cleaner
// reclaimed the segment. Older than the checkpoint now, it is not on the
// chain, and the open reads none of it.
func TestAbandonedSegmentLeavesTheChain(t *testing.T) {
	e := newTestDrive(t)
	keep := e.create(alice)
	e.write(alice, keep, 0, bytes.Repeat([]byte{'K'}, types.BlockSize))
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; e.d.log.CurrentSegment() < 1; i++ {
		e.write(alice, keep, 0, bytes.Repeat([]byte{byte(i)}, types.BlockSize))
	}
	a := e.create(alice)
	e.write(alice, a, 0, bytes.Repeat([]byte{'A'}, types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	abandoned := e.d.log.CurrentSegment()
	e.reopen() // the crash; the segment stays partly filled, its record in block 0

	// The second life moves both chain heads out of it and fills its own
	// first segment — so that what the replay reads of the tail shares no
	// journal block with them — checkpoints, and writes a tail of its own.
	e.write(alice, a, 0, bytes.Repeat([]byte{'a'}, types.BlockSize))
	e.write(alice, keep, 0, bytes.Repeat([]byte{'k'}, types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	c := e.create(alice)
	for i, seg := 0, e.d.log.CurrentSegment(); e.d.log.CurrentSegment() == seg; i++ {
		e.write(alice, c, uint64(i)*types.BlockSize, bytes.Repeat([]byte{'c'}, types.BlockSize))
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b := e.create(alice)
	e.write(alice, b, 0, bytes.Repeat([]byte{'B'}, types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	if cur := e.d.log.CurrentSegment(); cur == abandoned {
		t.Fatalf("the second life reopened segment %d", cur)
	}

	rl := &readLog{Device: e.dev}
	d, err := Open(rl, e.d.opts)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := segBase(e.d.opts, abandoned), segBase(e.d.opts, abandoned+1)
	for _, r := range rl.reads {
		if r[0] < hi && r[1] > lo {
			t.Errorf("the open read blocks [%d, %d) of abandoned segment %d [%d, %d)", r[0], r[1], abandoned, lo, hi)
		}
	}
	t.Logf("open: %d reads, none of segment %d", len(rl.reads), abandoned)
	if d.log.IsFree(abandoned) {
		t.Fatalf("segment %d, live data in it, is free", abandoned)
	}
	for id, want := range map[types.ObjectID]byte{a: 'a', keep: 'k', b: 'B'} {
		got, err := d.Read(alice, id, 0, types.BlockSize, types.TimeNowest)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{want}, types.BlockSize)) {
			t.Fatalf("object %v after the open: %v, %.8q", id, err, got)
		}
	}
}

// TestSecondCrashReadsOnlyTheChain is the drive's side of seglog's
// TestSecondCrashFollowsHeldChain: a crash right after the first write of
// a segment's life leaves it with an open record and no summary, so
// recovery never marks it allocated, and the next life would reopen it
// first and overwrite the record the chain runs through — sending the
// open after a second crash, with no checkpoint between, to read block 0
// of every segment. Recovery holds the walked chain back until the next
// checkpoint instead, and the second open reads the chain.
func TestSecondCrashReadsOnlyTheChain(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(64<<20), nil)
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
	}
	d, err := Format(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, clk: clk}
	id := e.create(alice)
	e.write(alice, id, 0, bytes.Repeat([]byte{1}, types.BlockSize))
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec.StartRecording()
	for i := 0; i < 20; i++ {
		e.write(alice, id, 0, bytes.Repeat([]byte{byte(i + 2)}, types.BlockSize))
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	// The first write of a segment's life that is not the last write.
	const spb = types.BlockSize / disk.SectorSize
	k, abandoned := -1, int64(-1)
	for j := 0; j+1 < rec.Writes() && k < 0; j++ {
		w := rec.Record(j)
		blk := w.Sector/spb - int64(1+2*opts.CheckpointBlocks)
		if w.Sector%spb == 0 && blk >= 0 && blk%int64(opts.SegBlocks) == 0 && w.Sectors() > spb {
			k, abandoned = j+1, blk/int64(opts.SegBlocks)
		}
	}
	if k < 0 {
		t.Fatal("no segment opened under recording")
	}
	img, err := rec.ImageAt(k)
	if err != nil {
		t.Fatal(err)
	}
	lived, err := Open(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2 := &testEnv{t: t, d: lived, clk: clk}
	var last byte
	for i := 0; i < 40; i++ {
		last = byte(100 + i)
		e2.write(alice, id, 0, bytes.Repeat([]byte{last}, types.BlockSize))
		if err := lived.Sync(alice); err != nil {
			t.Fatal(err)
		}
		if lived.log.CurrentSegment() == abandoned {
			t.Fatalf("the second life reopened segment %d, which the chain runs through", abandoned)
		}
	}

	rl := &readLog{Device: img}
	d3, err := Open(rl, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := d3.log.NumSegments()
	t.Logf("second open of a %d-segment log: %d reads", n, len(rl.reads))
	if int64(len(rl.reads)) >= n/4 {
		t.Fatalf("second open issued %d reads on a %d-segment log: it read more than the chain", len(rl.reads), n)
	}
	if st := d3.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
		t.Fatalf("IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
	}
	got, err := d3.Read(alice, id, 0, types.BlockSize, types.TimeNowest)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{last}, types.BlockSize)) {
		t.Fatalf("after the second crash: %v, %.8q; want the second life's last synced write", err, got)
	}
	if err := d3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedOpenSkipsSealedCheckpointHead opens a crash image whose
// objects each took one write after a checkpoint that found their chain
// heads in sealed segments. The usage rebuild walks each touched chain
// down to the checkpoint-time head only to stop there, and a sealed head
// is as the index base counted it, so the walk ends at the sector that
// links to it: the open reads no block that held such a head. Before,
// it read each of them (the cause of 13 of restart_deep's 76 reads).
func TestIndexedOpenSkipsSealedCheckpointHead(t *testing.T) {
	e := newTestDrive(t)
	// A run of one object's blocks seals the segment open before it, so
	// the heads' journal block holds no other object's head (one the
	// open vets, like the partition table's, which format leaves
	// pending).
	filler := e.create(alice)
	seal := func() {
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		e.write(alice, filler, 0, make([]byte, 2*e.d.log.PayloadBlocks()*types.BlockSize))
	}
	seal()
	ids := make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, blockPattern(i))
	}
	seal()
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	heads := make(map[int64]bool)
	for _, id := range ids {
		blk := e.d.objects[id].jhead.Block()
		if segOf(e.d.log, blk) == e.d.log.CurrentSegment() {
			t.Fatalf("%v's head is in the open segment at the checkpoint", id)
		}
		heads[int64(blk)] = true
	}
	for i, id := range ids {
		e.write(alice, id, 0, blockPattern(10+i))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}

	var digests []string
	for _, emptyBase := range []bool{false, true} {
		d, rl := openLogged(t, e, emptyBase)
		if st := d.GetStats(); (st.IndexLoads == 1) == emptyBase || st.IndexFallbacks != 0 {
			t.Fatalf("empty base %v: IndexLoads=%d IndexFallbacks=%d", emptyBase, st.IndexLoads, st.IndexFallbacks)
		}
		read := 0
		for _, r := range rl.reads {
			for b := r[0]; b < r[1]; b++ {
				if heads[b] {
					read++
				}
			}
		}
		t.Logf("empty base %v: %d reads, %d of them of a checkpoint-time head's block (%d blocks)", emptyBase, len(rl.reads), read, len(heads))
		if !emptyBase && read != 0 {
			t.Errorf("the indexed open read checkpoint-time heads %d times", read)
		}
		for i, id := range ids {
			got, err := d.Read(alice, id, 0, types.BlockSize, types.TimeNowest)
			if err != nil || !bytes.Equal(got, blockPattern(10+i)) {
				t.Fatalf("empty base %v: %v reads back wrong (%v)", emptyBase, id, err)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d.StateDigest())
	}
	if digests[0] != digests[1] {
		t.Fatalf("the two bases recovered different states:\n%s\n--\n%s", digests[0], digests[1])
	}
}

// TestOpenReadsOnlyWhatItUses checks the read log of an indexed open of a
// crash image with a dozen-segment synced tail, read by read, against
// what each read needs (DESIGN.md §14.6): the superblock is one sector
// and so is the losing checkpoint slot's header; no block 0 is read past
// the sectors a summary can fill; no summary is read for a segment the
// checkpoint's index lists as sealed then, which the seal lists whole;
// and no read ends past the Len its summary gives a checksummed journal
// block. Before, all four read whole blocks.
func TestOpenReadsOnlyWhatItUses(t *testing.T) {
	e := tailImage(t)
	d, rl := openLogged(t, e, false)
	if st := d.GetStats(); st.IndexLoads != 1 || st.RecoveryReplayEntries == 0 {
		t.Fatalf("open: IndexLoads=%d replayed %d entries, want an indexed open of a tail", st.IndexLoads, st.RecoveryReplayEntries)
	}
	reads := rl.sectors // what the open read; the lookups below read more
	const spb = types.BlockSize / disk.SectorSize
	opts := d.opts
	winner, _ := newestSlot(t, e.dev, opts.CheckpointBlocks)
	loser := int64(1 + (1-winner)*opts.CheckpointBlocks)
	idx, err := decodeSegIndex(newestSlotIndex(t, e.dev, opts.CheckpointBlocks), d.log.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	span := int64(36+33*d.log.PayloadBlocks()+disk.SectorSize-1) / disk.SectorSize
	var summaries, journal, trimmed int
	for _, r := range reads {
		first, n := r[0], r[1]-r[0]
		block := first / spb
		switch seg := d.log.SegOf(seglog.BlockAddr(block)); {
		case block == 0:
			if first != 0 || n != 1 {
				t.Errorf("superblock read as sectors [%d, %d), want one sector", r[0], r[1])
			}
		case block == loser:
			if first != loser*spb || n != 1 {
				t.Errorf("losing checkpoint slot read as sectors [%d, %d), want its header sector", r[0], r[1])
			}
		case seg >= 0 && block == segBase(opts, seg):
			summaries++
			if n > span {
				t.Errorf("segment %d: block 0 read as %d sectors, a summary fills at most %d", seg, n, span)
			}
			if !idx.segs[seg].free && seg != idx.openSeg {
				t.Errorf("segment %d: summary read, but the checkpoint's index lists it sealed", seg)
			}
		}
		// The block the read ends in: a checksummed journal block there
		// is fetched up to its Len.
		last := (r[1] - 1) / spb
		seg := d.log.SegOf(seglog.BlockAddr(last))
		if seg < 0 || last == segBase(opts, seg) {
			continue
		}
		sum, ok, err := d.log.ReadSummary(seg)
		i := int(last - int64(d.log.EntryAt(seg, 0)))
		if err != nil || !ok || i >= len(sum.Entries) {
			continue
		}
		if en := sum.Entries[i]; en.Kind == seglog.KindJournal && en.Sum != 0 {
			journal++
			if end := last*spb + int64(en.Len+disk.SectorSize-1)/disk.SectorSize; r[1] > end {
				t.Errorf("journal block %d (Len %d) read to sector %d of it, past its Len", last, en.Len, r[1]-last*spb)
			} else if en.Len <= types.BlockSize-disk.SectorSize {
				trimmed++
			}
		}
	}
	t.Logf("%d reads: %d of a block 0, %d ending in a sealed journal block, %d of those short of the block", len(reads), summaries, journal, trimmed)
	if journal == 0 || trimmed == 0 {
		t.Fatalf("the open read %d sealed journal blocks, %d short ones: the image does not show what the check is for", journal, trimmed)
	}
}

// TestRecCoveredTrustsOnlySealedSegments holds recCovered to what the
// checkpoint's index can answer. A segment the index lists as allocated,
// other than the one open at the checkpoint, was sealed then and is
// covered whole, with no read; one the index lists as free, or the one
// open then, is answered by its durable summary. Taking a free segment
// for a sealed one would count blocks that no summary lists.
func TestRecCoveredTrustsOnlySealedSegments(t *testing.T) {
	e := tailImage(t)
	d, rl := openLogged(t, e, false)
	idx, err := decodeSegIndex(newestSlotIndex(t, e.dev, d.opts.CheckpointBlocks), d.log.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	sealed, free := int64(-1), int64(-1)
	for seg := int64(0); seg < d.log.NumSegments() && (sealed < 0 || free < 0); seg++ {
		switch {
		case seg == idx.openSeg:
		case !idx.segs[seg].free && sealed < 0:
			sealed = seg
		case idx.segs[seg].free && d.log.IsFree(seg) && free < 0:
			free = seg // free then and now: nothing has written it since
		}
	}
	if sealed < 0 || free < 0 || idx.openSeg < 0 {
		t.Fatalf("no sealed (%d), free (%d) or open (%d) segment at the checkpoint", sealed, free, idx.openSeg)
	}
	d.recSumCover, d.recIndex = make(map[int64]int), idx
	defer func() { d.recSumCover, d.recIndex = nil, nil }()
	slot := d.log.PayloadBlocks() - 1 // the last slot, which only a seal covers
	for _, c := range []struct {
		what string
		seg  int64
	}{
		{"sealed at the checkpoint", sealed},
		{"free at the checkpoint", free},
		{"open at the checkpoint", idx.openSeg},
	} {
		n := len(rl.sectors)
		got := d.recCovered(d.log.EntryAt(c.seg, slot))
		reads := len(rl.sectors) - n
		want, err := d.log.Covered(c.seg)
		if err != nil || d.recErr != nil {
			t.Fatal(err, d.recErr)
		}
		t.Logf("segment %d, %s: its summary covers %d slots; recCovered read %d times", c.seg, c.what, want, reads)
		switch {
		case c.seg == sealed && (reads != 0 || !got):
			t.Errorf("segment %d, %s: recCovered read %d times and says %v of its last slot, want no read and covered", c.seg, c.what, reads, got)
		case c.seg != sealed && got != (slot < want):
			t.Errorf("segment %d, %s: recCovered says %v of slot %d, its summary covers %d", c.seg, c.what, got, slot, want)
		}
	}
}
