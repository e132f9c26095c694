package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
// device and opens both crash images, anchored at the segment index and
// with DisableSegIndex. The larger device has 1,792 more segments, all
// never written, and the roll-forward scan follows the log from the
// checkpoint through the segments written since, so the two indexed
// opens issue the same reads; only the segment index in the checkpoint
// is longer, by a few bytes per segment. (The checkpoint's blob costs a
// read of its own only once it outgrows its slot's header block, which
// those bytes can make it do on the larger device alone; that read is
// counted apart.) When the scan read block 0 of
// every segment, the larger open issued 1,792 more reads; when it probed
// every block of every segment without a sealed summary, the two opens
// differed by about the difference in capacity. The full-scan opens
// read the summary of each segment holding a block they account, and
// sweep the rest from the counters, so they too issue the same reads;
// when the full scan classified the blocks of every segment's summary,
// the larger issued 1,792 more.
func TestOpenReadsDoNotScaleWithFreeSpace(t *testing.T) {
	type result struct {
		nSeg, reads, bytes int64
		blobReads          int64 // 1 if the checkpoint outgrew its header block
		st                 Stats
	}
	open := func(capacity int64) (indexed, fullScan result) {
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
		// Abandoned, not closed: dev holds what a crash leaves, and each
		// open below is abandoned again to keep it so.
		opts.Clock = vclock.NewVirtualAt(d.Now().Time())
		reopen := func(disableIndex bool) result {
			dev.ResetStats()
			opts.DisableSegIndex = disableIndex
			r, err := Open(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			ds := dev.Stats() // before CheckInvariants reads anything
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			blobReads := int64(0)
			if _, hdr := newestSlot(t, dev, r.opts.CheckpointBlocks); 48+binary.LittleEndian.Uint32(hdr[12:])+binary.LittleEndian.Uint32(hdr[20:]) > seglog.BlockSize {
				blobReads = 1
			}
			return result{r.log.NumSegments(), ds.Reads, ds.SectorsRead * disk.SectorSize, blobReads, r.GetStats()}
		}
		return reopen(false), reopen(true)
	}
	small, smallFull := open(64 << 20)
	large, largeFull := open(512 << 20)
	t.Logf("64 MB: %d segments, %d reads (%d of the checkpoint blob), %d bytes; 512 MB: %d segments, %d reads (%d), %d bytes",
		small.nSeg, small.reads, small.blobReads, small.bytes, large.nSeg, large.reads, large.blobReads, large.bytes)
	t.Logf("full scan: 64 MB %d reads, %d bytes; 512 MB %d reads, %d bytes",
		smallFull.reads, smallFull.bytes, largeFull.reads, largeFull.bytes)
	if small.st.IndexLoads != 1 || large.st.IndexLoads != 1 ||
		small.st.RecoveryReplayEntries == 0 || small.st.RecoveryReplayEntries != large.st.RecoveryReplayEntries {
		t.Fatalf("the two opens did not recover the same tail the same way: %+v vs %+v", small.st, large.st)
	}
	if smallFull.st.IndexLoads != 0 || largeFull.st.IndexLoads != 0 ||
		smallFull.st.RecoveryReplayEntries != largeFull.st.RecoveryReplayEntries {
		t.Fatalf("the two full-scan opens did not recover the same chains the same way: %+v vs %+v", smallFull.st, largeFull.st)
	}
	extra := large.nSeg - small.nSeg
	if extra < 1000 {
		t.Fatalf("only %d more segments on the larger device; the comparison would show nothing", extra)
	}
	// The index spends three varints on each free segment, and the
	// checkpoint blob is read by the block.
	bound := (3*extra/seglog.BlockSize + 2) * seglog.BlockSize
	for _, p := range [][2]result{{small, large}, {smallFull, largeFull}} {
		if diff := p[1].bytes - p[0].bytes; diff > bound {
			t.Fatalf("open read %d bytes more on the larger device; %d more segments in the index allow %d", diff, extra, bound)
		}
		if p[1].reads-p[1].blobReads != p[0].reads-p[0].blobReads {
			t.Fatalf("open issued %d reads on the larger device, %d on the smaller, %d and %d of them of the checkpoint blob (full scan %v)",
				p[1].reads, p[0].reads, p[1].blobReads, p[0].blobReads, p[0].st.IndexLoads == 0)
		}
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
		if a, b := before.GetStats().RecoveryReplayEntries, indexed.GetStats().RecoveryReplayEntries; a != b {
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

// deepChainImage formats a drive on a 256 MB device, writes versions
// overwrites round-robin over four two-block objects, checkpoints, adds
// a synced tail of eight more writes that touches every object, and
// abandons the drive: dev holds what a crash leaves, and opts opens it.
// The chains are journal-complete (nothing aged, nothing pruned) and,
// past 32 entries each, carry a landmark every CheckpointEvery. With
// cold, every inode is evicted just before the checkpoint, so its
// segment index carries no inode image and the open loads each object
// from its chain; otherwise it loads each from its image. Each after
// runs once every write has returned, before anything else does.
func deepChainImage(t *testing.T, versions int, cold bool, after ...func(*Drive)) (dev *disk.Disk, opts Options, ids []types.ObjectID) {
	t.Helper()
	dev = disk.New(disk.SmallDisk(256<<20), nil)
	clk := vclock.NewVirtual()
	opts = Options{Clock: clk, Window: time.Hour}
	d, err := Format(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, clk: clk}
	ids = make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
	}
	for v := 0; v < versions+8; v++ {
		e.write(alice, ids[v%len(ids)], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
		for _, f := range after {
			f(d)
		}
		switch {
		case v >= versions:
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		case v == versions-1:
			if cold {
				evictAll(t, d)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts.Clock = vclock.NewVirtualAt(d.Now().Time())
	return dev, opts, ids
}

// evictAll drops every inode d holds, flushing their journals as an
// eviction does.
func evictAll(t *testing.T, d *Drive) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.opts.ObjectCacheCount
	d.opts.ObjectCacheCount = 0
	err := d.evictColdLocked()
	d.opts.ObjectCacheCount = n
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenWorkDoesNotScaleWithChainDepth opens two crash images that
// differ only in how much history lies under the checkpoint: 1,000 and
// 8,000 versions over the same four objects, the same device, the same
// synced tail. The tail touches every object, each is journal-complete
// and none was loaded at the checkpoint (so the index holds no image of
// it), so the open loads each from its chain — from the newest
// landmark up, which is the few sectors above and at it however deep
// the chain (DESIGN.md §12.1). When loadInode replayed every chain from
// its EntCreate, both counts grew with the depth: ~8x in the chain-walk
// term, which on the deeper image was most of the open. The reads are
// split three ways: the checkpoint's, the roll-forward scan's (a
// summary, and a payload read, of each segment from the one open at
// the checkpoint on) and the loads' walks (the rest). Both images
// carry the same eight-write tail, but where the checkpoint fell in its
// segment differs, so the tail may cross one more segment boundary in
// one image than in the other: at 1,000 versions the tail stays in the
// checkpoint's segment (2 summaries, 1 payload, 0 walk reads), at
// 8,000 it spills into the next (3, 1, 4). The total bound allows what
// each such extra segment costs the scan, its summary and its payload,
// and nothing more.
func TestOpenWorkDoesNotScaleWithChainDepth(t *testing.T) {
	type result struct {
		reads, walks, tailSegs int64
		alloc                  uint64
		st                     Stats
	}
	open := func(versions int) result {
		dev, opts, ids := deepChainImage(t, versions, true)
		rl := &readLog{Device: dev}
		// Two collections empty every sync.Pool, so neither open reuses
		// what earlier work in this process happened to leave pooled.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(rl, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		res := result{reads: int64(len(rl.reads)), alloc: after.TotalAlloc - before.TotalAlloc}
		_, hdr := newestSlot(t, dev, r.opts.CheckpointBlocks)
		cpSeg := int64(binary.LittleEndian.Uint32(hdr[28:]))
		scanned := make(map[int64]bool)
		for _, rd := range rl.reads { // before CheckInvariants reads anything
			b := rd[0]
			seg := (b - segBase(r.opts, 0)) / int64(r.opts.SegBlocks)
			switch {
			case b < segBase(r.opts, 0): // the superblock and the checkpoint slots
			case seg >= cpSeg && b == segBase(r.opts, seg) && !scanned[seg]:
				scanned[seg] = true // the scan's summary read
			case seg >= cpSeg && rd[1]-b > 1: // the scan's payload read
			default:
				res.walks++
			}
		}
		res.tailSegs = int64(len(scanned))
		for _, id := range ids {
			if r.objects[id].ino == nil || !r.objects[id].journalComplete() {
				t.Fatalf("%d versions: %v was not loaded from its chain by the open", versions, id)
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		res.st = r.GetStats()
		return res
	}
	shallow, deep := open(1000), open(8000)
	t.Logf("1,000 versions: %d reads (%d tail segments, %d walk reads), %d B allocated; 8,000 versions: %d reads (%d, %d), %d B allocated",
		shallow.reads, shallow.tailSegs, shallow.walks, shallow.alloc, deep.reads, deep.tailSegs, deep.walks, deep.alloc)
	if shallow.st.IndexLoads != 1 || deep.st.IndexLoads != 1 ||
		shallow.st.RecoveryReplayEntries == 0 || deep.st.RecoveryReplayEntries == 0 {
		t.Fatalf("the two opens did not both replay a tail from the segment index: %+v vs %+v", shallow.st, deep.st)
	}
	// One read of slack per object: where a chain's landmark falls
	// relative to its sector boundaries differs between the images.
	if diff := deep.walks - shallow.walks; diff > 4 {
		t.Errorf("open's loads issued %d more reads over chains eight times as deep; want at most one per object (4)", diff)
	}
	extra := deep.tailSegs - shallow.tailSegs
	if extra < 0 {
		extra = 0
	}
	if diff := deep.reads - shallow.reads; diff > 4+2*extra {
		t.Errorf("open issued %d more reads over chains eight times as deep, its tail %d segments longer; want at most one per object (4) and a summary and a payload read per extra segment", diff, extra)
	}
	if deep.alloc > shallow.alloc+shallow.alloc/10 {
		t.Errorf("open allocated %d B over chains eight times as deep, %d B over the shallow ones; want within 10%%", deep.alloc, shallow.alloc)
	}
}

// TestEvictedObjectReloadsFromLandmark is the same bound on a running
// drive: an object with a thousand versions, evicted (an object cache
// of one) and touched again, reloads from its newest landmark — the
// root and the sectors holding the at most CheckpointEvery entries
// above it and the checkpoint entry itself — not from its EntCreate.
func TestEvictedObjectReloadsFromLandmark(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.ObjectCacheCount = 1 })
	id, other := e.create(alice), e.create(alice)
	for v := 0; v < 1000; v++ {
		e.write(alice, id, uint64(v%2)*types.BlockSize, bytes.Repeat([]byte{byte(v)}, 512))
	}
	want := e.read(alice, id, 0, 2*types.BlockSize, types.TimeNowest)
	if _, err := e.d.GetAttr(alice, other, types.TimeNowest); err != nil { // evicts id
		t.Fatal(err)
	}
	d := e.d
	o := d.objects[id]
	if o.ino != nil || !o.journalComplete() {
		t.Fatalf("object not evicted (ino %v) or not journal-complete", o.ino != nil)
	}
	// How many entries the chain's sectors hold on average says how many
	// sectors CheckpointEvery+1 entries span.
	sectors, entries := 0, 0
	d.mu.Lock()
	err := d.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, sec []journal.Entry) (bool, error) {
		sectors++
		entries += len(sec)
		return false, nil
	})
	d.cache.dropRange(0, seglog.BlockAddr(d.log.NumSegments()*int64(d.opts.SegBlocks)+1024))
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	perSector := entries / sectors
	bound := int64(1 + (d.opts.CheckpointEvery+1+perSector-1)/perSector + 1)
	if int64(sectors) < 4*bound {
		t.Fatalf("chain of %d sectors is not deep against a bound of %d reads", sectors, bound)
	}
	e.dev.ResetStats()
	if _, err := d.GetAttr(alice, id, types.TimeNowest); err != nil {
		t.Fatal(err)
	}
	reads := e.dev.Stats().Reads
	t.Logf("chain of %d sectors, %d entries in each: reload read %d blocks (bound %d)", sectors, perSector, reads, bound)
	if reads > bound {
		t.Errorf("reload of a %d-sector chain read %d blocks from a cold cache, want at most %d: one root, the sectors above it", sectors, reads, bound)
	}
	if got := e.read(alice, id, 0, 2*types.BlockSize, types.TimeNowest); !bytes.Equal(got, want) {
		t.Error("the reloaded object does not read back what it held")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// failReads fails every read that touches sectors [lo, hi) with err.
type failReads struct {
	disk.Device
	lo, hi int64
	err    error
}

func (f *failReads) ReadSectors(sector int64, buf []byte) error {
	if sector < f.hi && sector+int64(len(buf)/disk.SectorSize) > f.lo {
		return f.err
	}
	return f.Device.ReadSectors(sector, buf)
}

// TestRottedNewestLandmarkFallsBack: the anchor is an optimization, so
// a spoiled one costs replay, never the open. The image rides its journal
// entry, whose sector and block checksums catch rot on media, so what is
// left to spoil is an image that does not decode under valid checksums:
// one the writer got wrong. With the newest landmark of a deep chain
// carrying such an image the open succeeds on the state the clean open
// recovers, having anchored one landmark further down — it reads about
// one landmark interval more, not the chain. A landmark sector the
// device cannot read at all is different: that is an I/O error, and the
// open fails with it rather than take it for "no landmark here".
func TestRottedNewestLandmarkFallsBack(t *testing.T) {
	// 1,000 versions over four objects: chains of ~250 entries, the
	// newest landmark of each below the checkpoint, and no inode image
	// in the index to load instead.
	dev, opts, ids := deepChainImage(t, 1000, true)
	clean, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	digest := clean.StateDigest()
	o := clean.objects[ids[0]]
	if len(o.landmarks) < 5 {
		t.Fatalf("only %d landmarks on the deep chain", len(o.landmarks))
	}
	newest := o.landmarks[len(o.landmarks)-1]
	want, err := clean.Read(alice, ids[0], 0, 2*types.BlockSize, types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	sectors := 0
	err = clean.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
		sectors++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := func(dev disk.Device, st func() disk.Stats) (int64, *Drive) {
		before := st().Reads
		r, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st().Reads - before, r
	}
	cleanReads, _ := reads(dev, dev.Stats)

	const spb = types.BlockSize / disk.SectorSize
	boom := errors.New("boom")
	lo := int64(newest.sector.Block()) * spb
	if _, err := Open(&failReads{Device: dev, lo: lo, hi: lo + spb, err: boom}, opts); !errors.Is(err, boom) {
		t.Fatalf("open with the newest landmark's sector unreadable: %v, want the device's error", err)
	}

	// The same image once more, but the newest landmark's entry carries
	// an image with its magic flipped, set before the entry reached a
	// sector: the same bytes, sizes and addresses, under valid checksums.
	spoiled := false
	rot, _, _ := deepChainImage(t, 1000, true, func(d *Drive) {
		for _, e := range d.objects[ids[0]].pending {
			if !spoiled && e.Type == journal.EntCheckpoint && e.Version == newest.version {
				e.Image[0] ^= 0x40
				spoiled = true
			}
		}
	})
	if !spoiled {
		t.Fatalf("the second build emitted no landmark at v%d", newest.version)
	}
	rotReads, r := reads(rot, rot.Stats)
	if got := r.StateDigest(); got != digest {
		t.Errorf("open over the spoiled image recovered different state:\n%s\n--\n%s", got, digest)
	}
	if got, err := r.Read(alice, ids[0], 0, 2*types.BlockSize, types.TimeNowest); err != nil || !bytes.Equal(got, want) {
		t.Errorf("object reads back differently over the spoiled image (err %v)", err)
	}
	t.Logf("chain of %d sectors: clean open %d reads, newest landmark spoiled %d reads", sectors, cleanReads, rotReads)
	// The sectors of one more landmark interval (32 entries, at least
	// ~10 to a sector), some of them in blocks the clean open read.
	if extra := rotReads - cleanReads; extra < 1 || extra > 8 || extra >= int64(sectors)/2 {
		t.Errorf("spoiled newest landmark cost %d more reads on a chain of %d sectors; want about one landmark interval (1..8)", extra, sectors)
	}
}

// TestCheckInvariantsHoldsLandmarkToReplay plants the one defect the
// load anchor cannot tolerate and nothing else used to look for: a
// landmark image that decodes, carries the right object and version,
// passes its sector's checksum — and names a block the replay of the chain below
// it does not. A load that stops there would take that address into
// live state. CheckInvariants must refuse it, on the running drive and
// on the recovered image, naming the object and the version.
func TestCheckInvariantsHoldsLandmarkToReplay(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.CheckpointEvery = 4 })
	id := e.create(alice)
	e.write(alice, id, 0, bytes.Repeat([]byte{'a'}, 2*types.BlockSize))
	for e.d.objects[id].sinceLandmark != 3 {
		e.write(alice, id, types.BlockSize, bytes.Repeat([]byte{'b'}, 512))
	}
	// The next entry emits a landmark. Let its image name block 1's
	// address at index 0 as well, then put the live inode right again:
	// the image rides the entry, which its sector's checksum covers.
	o := e.d.objects[id]
	good := o.ino.blocks[0]
	o.ino.blocks[0] = o.ino.blocks[1]
	e.write(alice, id, types.BlockSize, bytes.Repeat([]byte{'c'}, 512))
	o.ino.blocks[0] = good
	version := o.ino.Version
	if n := len(o.landmarks); n == 0 || o.landmarks[n-1].version != version {
		t.Fatalf("no landmark emitted at v%d", version)
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		err := e.d.CheckInvariants()
		if err == nil {
			t.Fatalf("%s: CheckInvariants passed a landmark image that is not the replay below it", when)
		}
		for _, s := range []string{id.String(), fmt.Sprintf("v%d", version)} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: %q does not name %s", when, err, s)
			}
		}
	}
	check("running drive")
	e.reopen()
	check("recovered image")
}

// TestOpenLoadsFromImages: the segment index carries the inode of every
// object loaded at the checkpoint (DESIGN.md §14.1), so an open whose
// tail touches four deep chains loads each from its image and redoes the
// tail on top. It walks no chain below the checkpoint: of a segment
// sealed before it the open reads only the
// summary, which the usage rebuild's coverage lookups take, and the
// journal block of a chain's head at the checkpoint, which the open vets
// (vetSkippedHeads) or where the usage rebuild's walk down the tail
// ends. Loading from the log instead reads the journal blocks from each
// object's newest landmark up, a hundred-odd blocks back.
func TestOpenLoadsFromImages(t *testing.T) {
	e := newTestDrive(t)
	ids := make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
	}
	patch := func(v int) {
		e.write(alice, ids[v%len(ids)], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
	}
	for v := 0; v < 1000; v++ {
		patch(v)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	opts, cpSeg := e.d.opts, e.d.log.CurrentSegment()
	heads := make(map[int64]bool)
	for _, id := range ids {
		o := e.d.objects[id]
		if o.ino == nil || !o.journalComplete() || len(o.landmarks) == 0 {
			t.Fatalf("%v: loaded %v, journal-complete %v, %d landmarks; want a loaded deep chain", id, o.ino != nil, o.journalComplete(), len(o.landmarks))
		}
	}
	for _, o := range e.d.objects {
		heads[int64(o.jhead.Block())] = true
	}
	want := make([][]byte, len(ids))
	for v := 1000; v < 1008; v++ {
		patch(v)
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		want[i] = e.read(alice, id, 0, 2*types.BlockSize, types.TimeNowest)
	}

	d, rl := openLogged(t, e, false)
	if st := d.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
		t.Fatalf("IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
	}
	digest := d.StateDigest()
	old := 0
	for _, r := range rl.reads {
		for b := r[0]; b < r[1]; b++ {
			seg := (b - segBase(opts, 0)) / int64(opts.SegBlocks)
			switch {
			case b >= segBase(opts, 0) && seg < cpSeg && b != segBase(opts, seg) && !heads[b]:
				t.Errorf("the open read block %d of segment %d, sealed before the checkpoint", b, seg)
			case b >= segBase(opts, 0) && seg < cpSeg:
				old++
			}
		}
	}
	t.Logf("%d reads, %d of them of segments sealed before the checkpoint (segment %d open then)", len(rl.reads), old, cpSeg)
	for i, id := range ids {
		if got, err := d.Read(alice, id, 0, 2*types.BlockSize, types.TimeNowest); err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("%v reads back differently after the open (err %v)", id, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	full, _ := openLogged(t, e, true)
	if got, want := digest, full.StateDigest(); got != want {
		t.Errorf("the open from images and from the empty base diverged:\n%s\n--\n%s", got, want)
	}
}

// TestOpenReadsNoLandmarkRoot: a landmark is one journal entry that
// carries its inode image (DESIGN.md §12.1), so an open whose tail
// emitted landmarks adopts them from the entries its walks decode and
// reads no block of kind inode. When each landmark named a root block,
// the usage rebuild read every root the tail had emitted to check that
// it still decoded: one read per tail landmark.
func TestOpenReadsNoLandmarkRoot(t *testing.T) {
	e := newTestDrive(t)
	ids := make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
	}
	patch := func(v int) {
		e.write(alice, ids[v%len(ids)], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
	}
	for v := 0; v < 400; v++ {
		patch(v)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	landmarks := func(d *Drive) (n int) {
		for _, id := range ids {
			n += len(d.objects[id].landmarks)
		}
		return n
	}
	atCP := landmarks(e.d)
	for v := 400; v < 560; v++ { // 40 more entries an object: a landmark each at least
		patch(v)
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	tail := landmarks(e.d) - atCP
	if tail < len(ids) {
		t.Fatalf("the tail emitted %d landmarks, want one an object at least", tail)
	}

	d, rl := openLogged(t, e, false)
	if st := d.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
		t.Fatalf("IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
	}
	opts := d.opts
	inode := 0
	for _, r := range rl.reads {
		b := r[0]
		seg := (b - segBase(opts, 0)) / int64(opts.SegBlocks)
		if r[1]-b != 1 || b < segBase(opts, 0) || b == segBase(opts, seg) {
			continue // a vectored read, a checkpoint slot or a summary
		}
		sum, ok, err := d.log.ReadSummary(seg)
		if err != nil {
			t.Fatal(err)
		}
		if i := int(b - segBase(opts, seg) - 1); ok && i < len(sum.Entries) && sum.Entries[i].Kind == seglog.KindInode {
			inode++
		}
	}
	t.Logf("%d landmarks in the tail; the open issued %d reads, %d of them of an inode block", tail, len(rl.reads), inode)
	if inode != 0 {
		t.Errorf("the open read %d inode blocks; a landmark's image rides its entry", inode)
	}
	if n := landmarks(d); n != atCP+tail {
		t.Errorf("the open indexed %d landmarks, the drive held %d", n, atCP+tail)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
