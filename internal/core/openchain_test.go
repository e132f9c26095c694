package core

import (
	"bytes"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// What an open reads now that the log is threaded (DESIGN.md §14.5): the
// segments written since the checkpoint, each summary once, and nothing
// of a segment the chain no longer runs through.

// readLog records the block range of every device read under it.
type readLog struct {
	disk.Device
	reads [][2]int64 // [first, end) blocks
}

func (r *readLog) ReadSectors(sector int64, buf []byte) error {
	const spb = types.BlockSize / disk.SectorSize
	r.reads = append(r.reads, [2]int64{sector / spb, (sector*disk.SectorSize + int64(len(buf)) + types.BlockSize - 1) / types.BlockSize})
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
// counts the reads of every block. The roll-forward scan hands the usage
// rebuild the sectors it decoded (recSectors), so the rebuild's chain
// walks read no tail journal block again; before, 16 of the 53 blocks
// an indexed open read (of 55 from the empty base) were read twice. Two
// blocks still are, neither by a chain walk:
//   - block 1, the first checkpoint slot's header: ReadCheckpoint reads
//     the header alone, then the whole slot from it;
//   - the journal block in the segment open at the crash: the scan finds
//     that segment's newest summary snapshot by reading its payload in
//     one vectored read, then replays the block with a read of its own.
//
// The hand-off changes no count: the entries recovery examines
// (RecoveryReplayEntries) are those of the walks that used to decode.
func TestOpenReadsEachTailBlockOnce(t *testing.T) {
	e := tailImage(t)
	opts, open := e.d.opts, e.d.log.CurrentSegment()
	named := func(b int64) bool {
		return b == 1 || b > segBase(opts, open) && b < segBase(opts, open+1)
	}
	var digests []string
	for _, emptyBase := range []bool{false, true} {
		d, rl := openLogged(t, e, emptyBase)
		if n := d.GetStats().RecoveryReplayEntries; n != 358 {
			t.Errorf("empty base %v: %d journal entries examined, want 358", emptyBase, n)
		}
		reads := make(map[int64]int)
		for _, r := range rl.reads {
			for b := r[0]; b < r[1]; b++ {
				reads[b]++
			}
		}
		var again []int64
		for b, n := range reads {
			if n > 1 {
				again = append(again, b)
				if !named(b) {
					t.Errorf("empty base %v: block %d read %d times", emptyBase, b, n)
				}
			}
		}
		t.Logf("empty base %v: %d reads of %d blocks; read more than once: %v", emptyBase, len(rl.reads), len(reads), again)
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
