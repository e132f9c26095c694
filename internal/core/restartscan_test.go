package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// What Open reads (DESIGN.md §14.5): the roll-forward scan's cost as the
// device's own read counters, and the open record's crash window as both
// recovery paths see it.

// TestOpenReadsDoNotScaleWithFreeSpace runs one workload — a few hundred
// checkpointed versions, then a synced tail — on a 64 MB and on a 512 MB
// device and opens both crash images. The larger device has 1,792 more
// segments, all never written; each may cost Open the one block that says
// so, and no more. When the scan probed every block of every segment
// without a sealed summary, the two opens differed by about the
// difference in capacity.
func TestOpenReadsDoNotScaleWithFreeSpace(t *testing.T) {
	type result struct {
		nSeg, reads, bytes int64
		st                 Stats
	}
	open := func(capacity int64) result {
		dev := disk.New(disk.SmallDisk(capacity), nil)
		clk := vclock.NewVirtual()
		opts := Options{Clock: clk, Window: time.Hour}
		d, err := Format(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		e := &testEnv{t: t, d: d, clk: clk}
		ids := make([]types.ObjectID, 4)
		for i := range ids {
			ids[i] = e.create(alice)
			e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
		}
		for v := 0; v < 300+8; v++ {
			e.write(alice, ids[v%len(ids)], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
			switch {
			case v >= 300:
				if err := d.Sync(alice); err != nil {
					t.Fatal(err)
				}
			case (v+1)%64 == 0 || v == 299:
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Abandoned, not closed: dev holds what a crash leaves.
		dev.ResetStats()
		opts.Clock = vclock.NewVirtualAt(d.Now().Time())
		r, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := dev.Stats() // before CheckInvariants reads anything
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return result{r.log.NumSegments(), ds.Reads, ds.SectorsRead * disk.SectorSize, r.DriveStats()}
	}
	small, large := open(64<<20), open(512<<20)
	t.Logf("64 MB: %d segments, %d reads, %d bytes; 512 MB: %d segments, %d reads, %d bytes",
		small.nSeg, small.reads, small.bytes, large.nSeg, large.reads, large.bytes)
	if small.st.IndexLoads != 1 || large.st.IndexLoads != 1 ||
		small.st.RecoveryReplayEntries == 0 || small.st.RecoveryReplayEntries != large.st.RecoveryReplayEntries {
		t.Fatalf("the two opens did not recover the same tail the same way: %+v vs %+v", small.st, large.st)
	}
	extra := large.nSeg - small.nSeg
	if extra < 1000 {
		t.Fatalf("only %d more segments on the larger device; the comparison would show nothing", extra)
	}
	// Four blocks of slack: the checkpoint blob is read by the block, and
	// the index in it spends a byte or two on each free segment.
	if diff, bound := large.bytes-small.bytes, (extra+4)*seglog.BlockSize; diff > bound {
		t.Fatalf("open read %d bytes more on the larger device; %d more segments allow %d", diff, extra, bound)
	}
	if diff := large.reads - small.reads; diff > extra {
		t.Fatalf("open issued %d more reads on the larger device, more than one per extra segment (%d)", diff, extra)
	}
}

// TestCrashBeforeFirstSnapshotBothPathsAgree crashes a drive right after
// the first device write of a segment's life — the open record and the
// first payload run, one write — and before the summary snapshot that
// would make any of it count. Recovery finds the segment opened and
// without a summary: nothing in it is replayed, it stays free (the
// recount of the full scan and the index of the indexed open agree on
// that, as on everything else), and the recovered state is the state of
// the image one write earlier.
func TestCrashBeforeFirstSnapshotBothPathsAgree(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.NewFault(32 << 20)
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
	for i := 0; i < 40; i++ { // a few blocks a sync: several segments seal and open
		e.write(alice, id, 0, bytes.Repeat([]byte{byte(i + 2)}, types.BlockSize))
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	end := d.Now()
	reopen := func(k int, disableIndex bool) *Drive {
		img, err := rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Clock = vclock.NewVirtualAt(end.Time())
		o.DisableSegIndex = disableIndex
		r, err := Open(img, o)
		if err != nil {
			t.Fatalf("crash@%d: %v", k, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("crash@%d: %v", k, err)
		}
		return r
	}

	const spb = types.BlockSize / disk.SectorSize
	segStart := int64(1 + 2*opts.CheckpointBlocks)
	windows := 0
	for k := 0; k < rec.Writes(); k++ {
		// A write from a segment's block 0 that runs past it is the first
		// of a life; a seal writes block 0 alone.
		w := rec.Record(k)
		blk := w.Sector/spb - segStart
		if w.Sector%spb != 0 || blk < 0 || blk%int64(opts.SegBlocks) != 0 || w.Sectors() <= spb {
			continue
		}
		seg := blk / int64(opts.SegBlocks)
		windows++
		before, indexed, full := reopen(k, false), reopen(k+1, false), reopen(k+1, true)
		if a, b := indexed.StateDigest(), full.StateDigest(); a != b {
			t.Fatalf("crash@%d: indexed and full-scan recovery disagree:\n%s\n--\n%s", k+1, a, b)
		}
		if a, b := before.StateDigest(), indexed.StateDigest(); a != b {
			t.Fatalf("crash@%d: a segment with a record and no summary changed what recovers:\n%s\n--\n%s", k+1, a, b)
		}
		if !indexed.log.IsFree(seg) || !full.log.IsFree(seg) {
			t.Fatalf("crash@%d: segment %d, opened and never summarised, is not free (indexed %v, full scan %v)",
				k+1, seg, indexed.log.IsFree(seg), full.log.IsFree(seg))
		}
		if a, b := before.DriveStats().RecoveryReplayEntries, indexed.DriveStats().RecoveryReplayEntries; a != b {
			t.Fatalf("crash@%d: replayed %d entries, %d one write earlier", k+1, b, a)
		}
	}
	if windows < 2 {
		t.Fatalf("the workload opened %d segments under recording; want several", windows)
	}
}

// TestWalkChainAllocatesPerWalk is journal's
// TestWalkBackwardAllocatesPerWalk for the drive's own chain walker,
// which recovery's loadInode and three cleaner passes run on: the walk
// owns one block buffer, so a sector costs what decoding its entries
// costs — well under the 4 KB block that every sector read used to
// allocate to look at 512 bytes of it.
func TestWalkChainAllocatesPerWalk(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	for v := 0; v < 200; v++ {
		e.write(alice, id, 0, spanPattern(v, 16))
		e.tick()
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	d := e.d
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.objects[id]
	sectors := 0
	walk := func() {
		sectors = 0
		if err := d.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
			sectors++
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	walk() // the chain's blocks are in the cache from here on
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk()
	runtime.ReadMemStats(&after)
	if sectors < 32 {
		t.Fatalf("chain of 200 versions walked in %d sectors, want a deep chain", sectors)
	}
	perSector := (after.TotalAlloc - before.TotalAlloc) / uint64(sectors)
	t.Logf("%d sectors, %d B allocated per sector", sectors, perSector)
	if perSector >= seglog.BlockSize {
		t.Fatalf("walkChain allocates %d B per sector over %d sectors, want less than a block: one buffer per walk, not per sector", perSector, sectors)
	}
}
