package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/types"
	"s4/internal/vclock"
)

// agingSectors counts, straight off the log (no cache, no index), the
// sectors of o's chain that hold an entry a pass at cut would age.
func agingSectors(t *testing.T, d *Drive, o *object, cut types.Timestamp) int {
	t.Helper()
	n, raw := 0, d.log
	for addr := o.jhead; addr != journal.NilSector; {
		_, prev, entries, err := journal.ReadSector(raw, addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range entries {
			if entries[i].Time < cut && entries[i].Version > o.floorVersion {
				n++
				break
			}
		}
		if addr == o.jtail {
			break
		}
		addr = prev
	}
	return n
}

// TestCleanerWarmPassReadsNothing holds the two costs of an ageing pass
// to what it ages. 64 objects with many-sector chains are reopened, so
// every chain is sealed, nothing is loaded and no chain index exists;
// the first pass pays for that with one walk per chain. Every later pass
// — each one a tenth of a second further on, so each ages a few entries
// of every object — must issue no device read at all (the chains are in
// the block cache), and must decode, per ripe visit, no more sectors
// than hold an entry it newly ages plus the one where it stops: ageing
// starts at the chain's old end, not at its head.
func TestCleanerWarmPassReadsNothing(t *testing.T) {
	const objects, rounds = 64, 24
	e := newTestDrive(t, func(o *Options) {
		o.Window = 800 * time.Millisecond
		o.BlockCacheBytes = 16 << 20
		o.ObjectCacheCount = 4 * objects
	})
	e.dev.SetFreeIO(true) // time is ticks alone: 1 ms a write, 64 ms a round
	ids := make([]types.ObjectID, objects)
	for i := range ids {
		ids[i] = e.create(alice)
	}
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			e.write(alice, id, 0, blockPattern(r))
		}
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	d := e.d
	t.Cleanup(func() { _ = d.Close() })

	var aged, ripe int
	for pass := 0; pass < 10; pass++ {
		cut := d.Now() - types.Timestamp(d.window)
		want := 0
		for _, id := range ids {
			want += agingSectors(t, d, d.objects[id], cut)
		}
		reads := e.dev.Stats().Reads
		cs, err := d.CleanOnce()
		if err != nil {
			t.Fatal(err)
		}
		reads = e.dev.Stats().Reads - reads
		t.Logf("pass %d: %d device reads, %d ripe visits, %d sectors decoded, %d hold a newly aged entry, %d entries aged, %d sectors pruned",
			pass, reads, cs.RipeVisits, cs.SectorsDecoded, want, cs.EntriesAged, cs.SectorsFreed)
		if pass == 0 {
			if reads == 0 || cs.RipeVisits < objects {
				t.Fatalf("cold pass: %d device reads, %d ripe visits; want every chain read and visited", reads, cs.RipeVisits)
			}
		} else {
			if reads != 0 {
				t.Errorf("pass %d: %d device reads, want 0: every chain sector is sealed and cached", pass, reads)
			}
			if cs.SectorsDecoded > want+cs.RipeVisits {
				t.Errorf("pass %d: %d sectors decoded over %d ripe visits, but only %d hold a newly aged entry: want at most one more per visit",
					pass, cs.SectorsDecoded, cs.RipeVisits, want)
			}
			aged += cs.EntriesAged
			ripe += cs.RipeVisits
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		e.clk.Advance(100 * time.Millisecond)
	}
	if aged < objects || ripe < objects {
		t.Fatalf("warm passes aged %d entries over %d ripe visits; the gate measured nothing", aged, ripe)
	}
	st := d.GetStats()
	if st.JournalCacheHits == 0 || st.JournalCacheMisses == 0 {
		t.Fatalf("journal cache counters: %d hits, %d misses; want both counted", st.JournalCacheHits, st.JournalCacheMisses)
	}
}

// TestCleanerFirstTouchReadsNothing is TestCleanerWarmPassReadsNothing's
// cold pass without the reopen: in the life that wrote them, sealed
// journal blocks are in the block cache from their seal on, so the first
// ageing pass over chains that span several sealed segments, which no
// walk has touched yet, issues no device read at all.
func TestCleanerFirstTouchReadsNothing(t *testing.T) {
	const objects, rounds = 64, 24
	e := newTestDrive(t, func(o *Options) {
		o.Window = 800 * time.Millisecond
		o.BlockCacheBytes = 16 << 20
		o.ObjectCacheCount = 4 * objects
	})
	e.dev.SetFreeIO(true) // time is ticks alone: 1 ms a write, 64 ms a round
	d := e.d
	ids := make([]types.ObjectID, objects)
	for i := range ids {
		ids[i] = e.create(alice)
	}
	first := d.log.CurrentSegment()
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			e.write(alice, id, 0, blockPattern(r))
		}
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest sectors of every chain sit in segments sealed since.
	if cur := d.log.CurrentSegment(); cur == first {
		t.Fatalf("the workload sealed no segment (still in %d)", cur)
	}
	e.clk.Advance(time.Second)
	reads := e.dev.Stats().Reads
	cs, err := d.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	reads = e.dev.Stats().Reads - reads
	t.Logf("first pass: %d device reads, %d ripe visits, %d sectors decoded, %d entries aged, %d segments freed",
		reads, cs.RipeVisits, cs.SectorsDecoded, cs.EntriesAged, cs.SegmentsFreed)
	if cs.EntriesAged == 0 || cs.RipeVisits < objects {
		t.Fatalf("first pass aged %d entries over %d ripe visits; the gate measured nothing", cs.EntriesAged, cs.RipeVisits)
	}
	if reads != 0 {
		t.Errorf("first pass: %d device reads, want 0: every sealed journal block entered the cache at its seal", reads)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanerCursorResumes pins phase 1's order: a pass visits a bounded
// batch of objects by ascending ID and the next pass resumes where it
// stopped, so a population larger than the batch is covered in two
// passes, the same objects in the same order on every run. Go's map
// order, which the phase used to follow, visited a random batch each
// pass and promised neither.
func TestCleanerCursorResumes(t *testing.T) {
	const batch, extra = 4096, 100 // batch is CleanOnce's maxObjects
	e := newTestDrive(t, func(o *Options) {
		o.Window = 50 * time.Millisecond
		o.ObjectCacheCount = 2 * batch
	})
	for i := 0; i < batch+extra; i++ {
		e.create(alice)
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(time.Second)
	d := e.d
	aged := func() (n int, below types.ObjectID) {
		for _, id := range d.objOrder {
			if d.objects[id].floorVersion == 0 {
				return n, id
			}
			n++
		}
		return n, 0
	}
	cs, err := d.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := aged(); cs.RipeVisits != batch || n != batch {
		t.Fatalf("first pass: %d ripe visits, the %d lowest IDs aged; want %d of both", cs.RipeVisits, n, batch)
	}
	if _, next := aged(); d.cleanCursor != next {
		t.Fatalf("cursor at %v after the first pass, want the first unvisited object %v", d.cleanCursor, next)
	}
	if cs, err = d.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	left := len(d.objOrder) - batch // extra, and the partition table
	if n, _ := aged(); cs.RipeVisits != left || n != len(d.objOrder) {
		t.Fatalf("second pass: %d ripe visits, %d of %d objects aged; want the %d the first pass left",
			cs.RipeVisits, n, len(d.objOrder), left)
	}
}

// TestHistoryWalkRacesHeadMerge runs a history reader over one object
// while another object's head sector, in the same journal block, is
// rewritten in place sync after sync, through the block's life in the
// open segment and across its seal. The reader walks its sector with no
// lock the writer takes. It must see every version of its object, every
// time; and once the writers stop, the other object's history — walked
// through whatever images the reader left in the cache — must hold every
// acknowledged write: an image cached before the block's last rewrite
// would lose the newest ones.
func TestHistoryWalkRacesHeadMerge(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.SegBlocks = 32 })
	d := e.d
	a, b := e.create(alice), e.create(alice)
	versions := func(id types.ObjectID) int {
		vs, err := d.ListVersions(alice, id)
		if err != nil {
			t.Error(err)
			return -1
		}
		return len(vs)
	}
	const rounds, merges = 40, 12
	var bTimes []types.Timestamp
	shared := 0
	for r := 0; r < rounds; r++ {
		// One new sector for each, back to back: a's at slot k, b's at k+1.
		e.write(alice, a, 0, []byte(fmt.Sprintf("a round %d", r)))
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		e.write(alice, b, 0, []byte(fmt.Sprintf("b round %d", r)))
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		d.mu.RLock()
		if d.objects[a].jhead.Block() == d.objects[b].jhead.Block() {
			shared++
		}
		d.mu.RUnlock()
		wantA := versions(a)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if got := versions(a); got != wantA {
					t.Errorf("round %d: reader saw %d versions of its object, want %d", r, got, wantA)
					return
				}
			}
		}()
		for m := 0; m < merges; m++ {
			msg := []byte(fmt.Sprintf("b round %d merge %d", r, m))
			if err := d.Write(alice, b, 0, msg); err != nil {
				t.Fatal(err)
			}
			bTimes = append(bTimes, d.Now())
			e.tick()
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
	}
	if shared < rounds/2 {
		t.Fatalf("the two heads shared a journal block in %d of %d rounds; the race was not staged", shared, rounds)
	}
	// Both re-read. Create + SetACL/SetAttr entries aside, every write is
	// one version.
	if got, want := versions(b), versions(a)+rounds*merges; got != want {
		t.Fatalf("the merged object lists %d versions, want %d: a stale journal block was served", got, want)
	}
	for i, at := range bTimes {
		r, m := i/merges, i%merges
		want := []byte(fmt.Sprintf("b round %d merge %d", r, m))
		if got := e.read(alice, b, 0, uint64(len(want)), at); !bytes.Equal(got, want) {
			t.Fatalf("merged object at write %d reads %q, want %q", i, got, want)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedTailLeavesNoStaleCache covers the one place a journal
// sector of a settled segment is rewritten: recovery erasing an
// unacknowledged tail (truncateJournalSector), after the chain walks
// that materialize inodes have read — and cached — that sector's block.
// Every crash image of a many-object workload that recovery truncates is
// opened, cleaned, checked (the checker compares cached blocks with the
// log) and checkpointed; a second open of the same device must then
// recover the very state the first one left.
func TestTruncatedTailLeavesNoStaleCache(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(32<<20), nil)
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: 20 * time.Millisecond, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
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
	rec.StartRecording()
	for r := 6; r < 14; r++ {
		for _, id := range ids {
			e.write(alice, id, 0, blockPattern(r))
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
	}
	end := d.Now()
	truncated := 0
	for k := 0; k <= rec.Writes(); k++ {
		img, err := rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Clock = vclock.NewVirtualAt(end.Time())
		first, err := Open(img, o)
		if err != nil {
			t.Fatalf("crash@%d: %v", k, err)
		}
		if first.GetStats().RecoveryTruncations == 0 {
			continue
		}
		truncated++
		if _, err := first.CleanOnce(); err != nil {
			t.Fatalf("crash@%d: cleaner: %v", k, err)
		}
		if err := first.CheckInvariants(); err != nil {
			t.Fatalf("crash@%d: after the cleaner: %v", k, err)
		}
		if err := first.Checkpoint(); err != nil {
			t.Fatalf("crash@%d: %v", k, err)
		}
		want := first.StateDigest()
		again, err := Open(img, o)
		if err != nil {
			t.Fatalf("crash@%d: reopen: %v", k, err)
		}
		if got := again.StateDigest(); got != want {
			t.Fatalf("crash@%d: reopening recovers a different state than the first open left:\n%s\n--\n%s", k, got, want)
		}
		if err := again.CheckInvariants(); err != nil {
			t.Fatalf("crash@%d: reopened: %v", k, err)
		}
	}
	if truncated == 0 {
		t.Fatal("no crash image had an unacknowledged journal tail; the test covered nothing")
	}
	t.Logf("%d of %d crash images had a tail to truncate", truncated, rec.Writes()+1)
}
