package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/seglog"
	"s4/internal/throttle"
	"s4/internal/types"
	"s4/internal/vclock"
)

func TestCleanerNeverTouchesInWindowHistory(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = 24 * time.Hour })
	id := e.create(alice)
	v1 := bytes.Repeat([]byte{'1'}, 4*types.BlockSize)
	e.write(alice, id, 0, v1)
	tV1 := e.d.Now()
	e.tick()
	e.write(alice, id, 0, bytes.Repeat([]byte{'2'}, 4*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	histBefore := e.d.HistoryBytes()
	if histBefore == 0 {
		t.Fatal("expected history after overwrite")
	}
	for i := 0; i < 10; i++ {
		if _, err := e.d.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.d.HistoryBytes(); got < histBefore {
		t.Fatalf("cleaner shrank in-window history: %d -> %d", histBefore, got)
	}
	if got := e.read(alice, id, 0, uint64(len(v1)), tV1); !bytes.Equal(got, v1) {
		t.Fatal("in-window version lost to cleaner")
	}
}

func TestCleanerReclaimsAgedHistory(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = time.Minute })
	id := e.create(alice)
	for i := 0; i < 8; i++ {
		e.write(alice, id, 0, bytes.Repeat([]byte{byte('a' + i)}, 8*types.BlockSize))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	histBefore := e.d.HistoryBytes()
	freeBefore := e.d.Status().FreeSegments
	// Let everything age out of the one-minute window.
	e.clk.Advance(2 * time.Minute)
	var cs CleanStats
	for i := 0; i < 20; i++ {
		s, err := e.d.CleanOnce()
		if err != nil {
			t.Fatal(err)
		}
		cs.BlocksAgedOut += s.BlocksAgedOut
		cs.SegmentsFreed += s.SegmentsFreed
	}
	if e.d.HistoryBytes() >= histBefore {
		t.Fatalf("aged history not reclaimed: %d -> %d", histBefore, e.d.HistoryBytes())
	}
	if cs.BlocksAgedOut == 0 {
		t.Fatal("no blocks aged out")
	}
	// Emptied segments rejoin the allocator at the checkpoint barrier.
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.d.Status().FreeSegments; got <= freeBefore {
		t.Fatalf("no segments freed: %d -> %d (aged %d blocks)", freeBefore, got, cs.BlocksAgedOut)
	}
	// The current version is intact.
	got := e.read(alice, id, 0, 8*types.BlockSize, types.TimeNowest)
	if !bytes.Equal(got, bytes.Repeat([]byte{'h'}, 8*types.BlockSize)) {
		t.Fatal("current version damaged by cleaner")
	}
}

func TestCleanerReapsAgedDeletedObjects(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = time.Minute })
	id := e.create(alice)
	e.write(alice, id, 0, bytes.Repeat([]byte{'x'}, 4*types.BlockSize))
	e.tick()
	if err := e.d.Delete(alice, id); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	objsBefore := e.d.Status().Objects
	e.clk.Advance(2 * time.Minute)
	for i := 0; i < 5; i++ {
		if _, err := e.d.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.d.Status().Objects; got >= objsBefore {
		t.Fatalf("deleted object not reaped: %d -> %d", objsBefore, got)
	}
	if _, err := e.d.Read(admin, id, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("reaped object still readable: %v", err)
	}
}

// TestCleanerCompactionPreservesData also counts the summary sectors
// the cleaning passes read. A compaction finds a segment's live blocks
// through its summary, and every segment here was sealed in this life,
// which left its summary in memory (seglog's sealedLocked): a pass's
// every read is of payload.
func TestCleanerCompactionPreservesData(t *testing.T) {
	// Compaction engages under allocator pressure (free < 1/5 of the
	// device), so run on a small drive and churn until segments are a
	// fragmented mix of live data and aged history.
	clk := vclock.NewVirtual()
	dev := disk.New(disk.SmallDisk(12<<20), clk)
	rl := &readLog{Device: dev}
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Minute, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
	}
	d, err := Format(rl, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	e := &testEnv{t: t, d: d, dev: dev, clk: clk}

	// Interleave churning objects (whose blocks die each round) with
	// small stable rewrites, so aged segments end up holding one or two
	// live blocks amid dead history — exactly the fragmentation the
	// compactor exists for.
	var churn, stable []types.ObjectID
	want := map[types.ObjectID][]byte{}
	for i := 0; i < 8; i++ {
		churn = append(churn, e.create(alice))
		stable = append(stable, e.create(alice))
	}
	copied, summaries := 0, 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			big := bytes.Repeat([]byte{byte(i), byte(round)}, 5*types.BlockSize/2)
			e.write(alice, churn[i], 0, big)
			want[churn[i]] = big
			if round == 0 {
				// Written once, interleaved between churn writes: these
				// blocks survive while everything around them dies.
				small := bytes.Repeat([]byte{0xA0 + byte(i)}, 600)
				e.write(alice, stable[i], 0, small)
				want[stable[i]] = small
			}
		}
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		e.clk.Advance(90 * time.Second)
		for k := 0; k < 8; k++ {
			n := len(rl.reads)
			cs, err := e.d.CleanOnce()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			copied += cs.BlocksCopied
			for _, r := range rl.reads[n:] {
				if b := r[0] - segBase(opts, 0); b >= 0 && b%int64(opts.SegBlocks) == 0 {
					summaries++
				}
			}
		}
	}
	for id, w := range want {
		got := e.read(alice, id, 0, uint64(len(w)), types.TimeNowest)
		if !bytes.Equal(got, w) {
			t.Fatalf("object %v damaged by compaction", id)
		}
	}
	if copied == 0 {
		t.Fatal("compaction never ran; test exercised nothing")
	}
	t.Logf("cleaning passes copied %d blocks and read %d summaries", copied, summaries)
	if summaries != 0 {
		t.Errorf("cleaning passes read %d summaries of segments sealed in this life, want 0", summaries)
	}
}

func TestCleanerThenCrashRecovery(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = time.Minute })
	var ids []types.ObjectID
	for i := 0; i < 12; i++ {
		id := e.create(alice)
		e.write(alice, id, 0, bytes.Repeat([]byte{byte(0x30 + i)}, 2*types.BlockSize))
		ids = append(ids, id)
	}
	for _, id := range ids[:6] {
		e.write(alice, id, 0, bytes.Repeat([]byte{0xFF}, 2*types.BlockSize))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(2 * time.Minute)
	for i := 0; i < 20; i++ {
		if _, err := e.d.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	for i, id := range ids {
		want := bytes.Repeat([]byte{byte(0x30 + i)}, 2*types.BlockSize)
		if i < 6 {
			want = bytes.Repeat([]byte{0xFF}, 2*types.BlockSize)
		}
		got := e.read(alice, id, 0, uint64(len(want)), types.TimeNowest)
		if !bytes.Equal(got, want) {
			t.Fatalf("object %d wrong after clean+crash", i)
		}
	}
}

// TestIntruderCannotDestroyWindowedData is the paper's core security
// claim (§3): no sequence of client commands — however privileged the
// stolen credential — can make pre-intrusion data unrecoverable within
// the detection window.
func TestIntruderCannotDestroyWindowedData(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = 24 * time.Hour })
	intruder := types.Cred{User: alice.User, Client: 66} // stolen identity
	secret := []byte("pre-intrusion system log contents")
	id := e.create(alice)
	e.write(alice, id, 0, secret)
	tClean := e.d.Now()
	e.tick()

	// The intruder tries everything a client can do.
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		switch rnd.Intn(5) {
		case 0:
			_ = e.d.Write(intruder, id, 0, bytes.Repeat([]byte{0}, len(secret)))
		case 1:
			_ = e.d.Truncate(intruder, id, 0)
		case 2:
			_ = e.d.Delete(intruder, id)
		case 3:
			// Admin commands fail without the admin credential.
			if err := e.d.Flush(intruder, 0, types.TimeNowest); !errors.Is(err, types.ErrAdminOnly) {
				t.Fatalf("intruder flush: %v", err)
			}
			if err := e.d.SetWindow(intruder, 0); !errors.Is(err, types.ErrAdminOnly) {
				t.Fatalf("intruder setwindow: %v", err)
			}
		case 4:
			_, _ = e.d.Append(intruder, id, []byte("garbage"))
		}
		e.tick()
	}
	// Fill pressure: cleaner passes change nothing inside the window.
	for i := 0; i < 10; i++ {
		if _, err := e.d.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// The administrator recovers the pre-intrusion contents exactly.
	got, err := e.d.Read(admin, id, 0, uint64(len(secret)), tClean)
	if err != nil {
		t.Fatalf("admin recovery failed: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("pre-intrusion data destroyed: %q", got)
	}
	// And the audit log names the intruder's client machine.
	recs, err := e.d.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fromIntruder int
	for _, r := range recs {
		if r.Client == intruder.Client && r.Op.Mutating() {
			fromIntruder++
		}
	}
	if fromIntruder == 0 {
		t.Fatal("audit log does not attribute the intruder's activity")
	}
}

func TestDeviceDoesNotFillWhenCleaning(t *testing.T) {
	// Sustained overwrite churn with a tiny window: the cleaner must
	// keep up and the device must not reach ErrNoSpace.
	e := newTestDrive(t, func(o *Options) { o.Window = 10 * time.Second })
	id := e.create(alice)
	payload := bytes.Repeat([]byte{0xAA}, 8*types.BlockSize)
	for i := 0; i < 400; i++ {
		if err := e.d.Write(alice, id, 0, payload); err != nil {
			t.Fatalf("write %d: %v (free segs %d)", i, err, e.d.Status().FreeSegments)
		}
		e.clk.Advance(time.Second)
		if i%5 == 0 {
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			if _, err := e.d.CleanOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := e.read(alice, id, 0, uint64(len(payload)), types.TimeNowest); !bytes.Equal(got, payload) {
		t.Fatal("data wrong after sustained churn")
	}
}

func TestThrottleEngagesUnderHistoryPressure(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.Window = 24 * time.Hour
		// Tiny pool so the test reaches pressure quickly.
		o.throttleCfg = &throttle.Config{
			PoolBytes:  2 << 20,
			PressureAt: 0.5,
			FairShare:  64 << 10,
			HalfLife:   10 * time.Second,
			MaxDelay:   250 * time.Millisecond,
		}
	})
	id := e.create(alice)
	payload := bytes.Repeat([]byte{1}, 4*types.BlockSize)
	before := e.d.GetStats().ThrottleDelays
	for i := 0; i < 200; i++ {
		if err := e.d.Write(alice, id, 0, payload); err != nil {
			t.Fatal(err)
		}
		e.clk.Advance(10 * time.Millisecond)
	}
	after := e.d.GetStats().ThrottleDelays
	if after <= before {
		t.Fatal("history-pool abuser never throttled")
	}
	suspects := e.d.Status().Suspects
	if len(suspects) != 1 || suspects[0] != alice.Client {
		t.Fatalf("suspects = %v", suspects)
	}
}

func TestCleanStatsAccumulate(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.Window = time.Second })
	id := e.create(alice)
	for i := 0; i < 5; i++ {
		e.write(alice, id, 0, bytes.Repeat([]byte{byte(i)}, 2*types.BlockSize))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(time.Minute)
	if _, err := e.d.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	ds := e.d.GetStats()
	if ds.CleanerRuns == 0 {
		t.Fatal("cleaner runs not counted")
	}
}

func TestFmtHelper(t *testing.T) {
	// Guards the fmt import in this file's error paths.
	if s := fmt.Sprintf("%v", types.ObjectID(3)); s != "obj#3" {
		t.Fatal(s)
	}
}

// TestCompactionReadsAdjacentLiveBlocksTogether compacts a sealed
// segment holding eight objects' short data blocks, most of them side by
// side, on a drive reopened with a cold cache. A verified read of a
// block alone ends at its Len, so the next block would start past where
// the device head stopped; compaction reads the segment's live data
// blocks a run of adjacent ones at a time, so the eight cost one device
// read a run, and all eight are copied with their bytes intact.
func TestCompactionReadsAdjacentLiveBlocksTogether(t *testing.T) {
	e := newTestDrive(t)
	ids := make([]types.ObjectID, 8)
	for i := range ids {
		ids[i] = e.create(alice)
	}
	for i, id := range ids {
		e.write(alice, id, 0, bytes.Repeat([]byte{byte('a' + i)}, 1000))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	addrs := make([]seglog.BlockAddr, len(ids))
	runs := 0
	for i, id := range ids {
		addrs[i] = e.d.objects[id].ino.Block(0)
		if i == 0 || addrs[i] != addrs[i-1]+1 {
			runs++
		}
	}
	seg := e.d.log.SegOf(addrs[0])
	if e.d.log.SegOf(addrs[len(ids)-1]) != seg || runs > len(ids)/2 {
		t.Fatalf("the eight blocks %v are not in one segment, mostly adjacent", addrs)
	}
	filler := e.create(alice)
	for e.d.log.CurrentSegment() == seg {
		e.write(alice, filler, 0, make([]byte, types.BlockSize))
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	d, rl := openLogged(t, e, false)
	n := len(rl.sectors)
	var cs CleanStats
	d.mu.Lock()
	err := d.compactSegmentLocked(seg, true, &cs)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	const spb = types.BlockSize / disk.SectorSize
	reads := 0
	for _, r := range rl.sectors[n:] {
		for _, a := range addrs {
			if r[0] <= int64(a)*spb && int64(a)*spb < r[1] {
				reads++
				break
			}
		}
	}
	t.Logf("%d device reads of the eight live blocks %v, %d blocks copied", reads, addrs, cs.BlocksCopied)
	if reads != runs {
		t.Errorf("compaction read the live blocks in %d device reads, want one for each of their %d runs", reads, runs)
	}
	for i, id := range ids {
		got, err := d.Read(alice, id, 0, 1000, types.TimeNowest)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 1000)) {
			t.Fatalf("object %d after compaction: %v", i, err)
		}
		if d.objects[id].ino.Block(0) == addrs[i] {
			t.Errorf("object %d's block was not copied out of segment %d", i, seg)
		}
	}
}

// TestSkippedPruneIsDueAtNextPass fills an 8 MB log to its space reserve
// with three times as many aged prunable objects as the reserve holds
// blocks, as TestFullDriveAgesBackToWritable does. The first pass has
// room to prune only some of them; the barriers that follow free room,
// and the passes after that prune the rest although none of the objects
// took another entry. A prune skipped for room leaves its object due at
// the next pass, not parked until a new entry ages.
func TestSkippedPruneIsDueAtNextPass(t *testing.T) {
	clk := vclock.NewVirtual()
	e := newTestDriveOn(t, disk.New(disk.SmallDisk(8<<20), clk), clk, func(o *Options) {
		o.Window = time.Minute
		o.CheckpointEvery = -1
	})
	ids := make([]types.ObjectID, 3*int(e.d.spaceReserve)*e.d.log.PayloadBlocks())
	for i := range ids {
		ids[i] = e.create(alice)
	}
	attr := bytes.Repeat([]byte{'a'}, 200) // one setattr fills a journal sector
	for range 12 {
		attr[0]++
		for _, id := range ids {
			if err := e.d.SetAttr(alice, id, attr); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		e.tick()
	}
	filler := e.create(alice)
	block := make([]byte, types.BlockSize)
	for i := 0; e.d.log.FreeSegments() > e.d.spaceReserve; i++ {
		block[0] = byte(i)
		if err := e.d.Write(alice, filler, 0, block); errors.Is(err, types.ErrNoSpace) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		e.tick()
	}
	e.clk.Advance(2 * time.Minute)
	pruned := func() (n int) {
		for _, id := range ids {
			if e.d.objects[id].pruned {
				n++
			}
		}
		return n
	}
	var counts []int
	for pass := 0; pass < 8 && pruned() < len(ids); pass++ {
		if _, err := e.d.CleanOnce(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		counts = append(counts, pruned())
	}
	t.Logf("objects pruned after each pass: %v of %d", counts, len(ids))
	if counts[0] == len(ids) {
		t.Fatal("the first pass pruned every object: no prune was skipped for room")
	}
	if n := pruned(); n != len(ids) {
		t.Fatalf("%d of %d aged objects pruned after %d passes with no new entry", n, len(ids), len(counts))
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFullDriveAgesBackToWritable holds DESIGN.md §11.5's no-wedge
// argument now that a prune leaves its inode block to the barrier: a
// log filled to its reserve, or to one segment above it, whose objects
// all have chains long enough to prune and all of them out of the
// window, must age its way back to writable, and prune them once it has
// room, invariants intact. There are more of them than the log has
// blocks left, so a pass that pruned them all would leave the barrier
// without room for their blocks, and the segments the pass emptied
// would never return to the allocator.
func TestFullDriveAgesBackToWritable(t *testing.T) {
	for _, above := range []int64{0, 1} {
		t.Run(fmt.Sprintf("above=%d", above), func(t *testing.T) {
			clk := vclock.NewVirtual()
			e := newTestDriveOn(t, disk.New(disk.SmallDisk(8<<20), clk), clk, func(o *Options) {
				o.Window = time.Minute
				o.CheckpointEvery = -1
			})
			ids := make([]types.ObjectID, 3*int(e.d.spaceReserve+above)*e.d.log.PayloadBlocks())
			for i := range ids {
				ids[i] = e.create(alice)
			}
			attr := bytes.Repeat([]byte{'a'}, 200) // one setattr fills a journal sector
			setAttrs := func(rounds int) {
				for range rounds {
					attr[0]++
					for _, id := range ids {
						if err := e.d.SetAttr(alice, id, attr); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.d.Sync(alice); err != nil {
						t.Fatal(err)
					}
					e.tick()
				}
			}
			setAttrs(12)
			filler := e.create(alice)
			block := make([]byte, types.BlockSize)
			for i := 0; e.d.log.FreeSegments() > e.d.spaceReserve+above; i++ {
				block[0] = byte(i)
				err := e.d.Write(alice, filler, 0, block)
				if errors.Is(err, types.ErrNoSpace) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				e.tick()
			}
			clean := func(passes int) (freed int) {
				for pass := range passes {
					cs, err := e.d.CleanOnce()
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					freed += cs.SectorsFreed
				}
				return freed
			}
			e.clk.Advance(2 * time.Minute)
			writable := -1
			for pass := 0; pass < 16 && writable < 0; pass++ {
				clean(1)
				if e.d.Write(alice, filler, 0, block) == nil {
					writable = pass
				}
			}
			if writable < 0 {
				t.Fatalf("a full drive did not age back to writable in 16 passes (free segments %d, reserve %d, %d segments waiting on the barrier)",
					e.d.log.FreeSegments(), e.d.spaceReserve, len(e.d.pendingFree))
			}
			// The prunes a pass skipped wait for the next entry to age,
			// as any chain the cleaner has passed whole does.
			setAttrs(1)
			e.clk.Advance(2 * time.Minute)
			freed := clean(2)
			pruned := 0
			for _, id := range ids {
				if e.d.objects[id].pruned {
					pruned++
				}
			}
			t.Logf("writable after %d passes; then %d sectors pruned, %d of %d objects", writable+1, freed, pruned, len(ids))
			if pruned != len(ids) {
				t.Fatalf("%d of %d aged objects pruned", pruned, len(ids))
			}
			if err := e.d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			e.reopen()
			if err := e.d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
