package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// The tests in this file cover the history read acceleration of
// DESIGN.md §12: the landmark checkpoint index, the reconstruction
// cache, and the vectored device read path, plus the block cache's
// sharing contract those lean on.

// writeVersions stacks n single-block-ish versions on id and returns
// the oracle: for every version, its timestamp and the full content at
// that instant.
type versionSnap struct {
	at   types.Timestamp
	data []byte
}

func writeVersions(e *testEnv, id types.ObjectID, n, size int, seed int64, after ...func()) []versionSnap {
	e.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, size)
	// Establish the full size up front so every historical read below
	// sees the same extent (reads past EOF truncate).
	if err := e.d.Write(alice, id, 0, content); err != nil {
		e.t.Fatal(err)
	}
	e.tick()
	snaps := make([]versionSnap, 0, n)
	for i := 0; i < n; i++ {
		wn := 1 + rng.Intn(256)
		off := rng.Intn(size - wn)
		patch := make([]byte, wn)
		rng.Read(patch)
		if err := e.d.Write(alice, id, uint64(off), patch); err != nil {
			e.t.Fatal(err)
		}
		for _, f := range after {
			f()
		}
		copy(content[off:], patch)
		snaps = append(snaps, versionSnap{at: e.d.Now(), data: append([]byte(nil), content...)})
		e.tick()
	}
	return snaps
}

func verifySnaps(e *testEnv, id types.ObjectID, snaps []versionSnap) {
	e.t.Helper()
	for i, sn := range snaps {
		got := e.read(alice, id, 0, uint64(len(sn.data)), sn.at)
		if !bytes.Equal(got, sn.data) {
			e.t.Fatalf("version %d (at %v): content diverged", i, sn.at)
		}
	}
}

// TestLandmarkWalkMatchesFullWalk is the landmark index's correctness
// oracle: with checkpoints every 4 entries and the reconstruction
// cache disabled, every historical read must reproduce the recorded
// state exactly, while the stats prove the landmark path (not the full
// walk) served the bulk of them. Each further row spoils every anchor of
// the index one way; the walk must then fall back to the full walk for
// every read, reproduce the same bytes, and count no landmark hit.
func TestLandmarkWalkMatchesFullWalk(t *testing.T) {
	const versions = 160
	build := func(t *testing.T, spoil bool) (*testEnv, types.ObjectID, []versionSnap) {
		e := newTestDrive(t, func(o *Options) {
			o.CheckpointEvery = 4
			o.reconCacheBytes = -1
		})
		id := e.create(alice)
		var prev []byte
		spoilImage := func() {
			// Each landmark entry carries the image of the version before
			// it, set before the entry reaches a sector: it decodes as
			// this object, at another version, under a valid sector CRC.
			// The Sync keeps the pending tail too short for a write to
			// flush its landmark before this sees it.
			o := e.d.objects[id]
			if n := len(o.pending); n > 0 && o.pending[n-1].Type == journal.EntCheckpoint && o.pending[n-1].Version == o.ino.Version {
				o.pending[n-1].Image = prev
			}
			prev = o.ino.image()
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
		var after []func()
		if spoil {
			after = append(after, spoilImage)
		}
		return e, id, writeVersions(e, id, versions, 4*int(types.BlockSize), 11, after...)
	}
	e, id, snaps := build(t, false)
	// Flush all pending journal entries so every landmark has a chain
	// position to anchor at.
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o := e.d.objects[id]
	var chain []journal.SectorAddr // newest first
	e.d.mu.Lock()
	err := e.d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
		chain = append(chain, addr)
		return false, nil
	})
	intact := append([]landmark(nil), o.landmarks...)
	e.d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(intact) < 2 || len(chain) < 2 {
		t.Fatalf("%d landmarks over %d sectors, want several of each", len(intact), len(chain))
	}
	rows := []struct {
		name  string
		spoil func(ls []landmark)
	}{
		{"indexed", nil},
		// The errLandmarkMiss path: the index names a sector of the chain
		// that does not hold the landmark's entry.
		{"sector-without-entry", func(ls []landmark) {
			for i := range ls {
				k := slices.Index(chain, ls[i].sector)
				ls[i].sector = chain[(k+1)%len(chain)]
			}
		}},
		// The image each landmark entry carries decodes as this object, but
		// at another version: no anchor. This row runs on a drive of its
		// own, which wrote those images (build).
		{"root-of-another-version", nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e, id, snaps := e, id, snaps
			if row.name == "root-of-another-version" {
				e, id, snaps = build(t, true)
				if err := e.d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := e.d.CheckLandmarks(); err == nil || !strings.Contains(err.Error(), "image does not decode") {
					t.Fatalf("CheckLandmarks = %v over images of other versions", err)
				}
			}
			if row.spoil != nil {
				e.d.mu.Lock()
				row.spoil(o.landmarks)
				e.d.mu.Unlock()
				t.Cleanup(func() {
					e.d.mu.Lock()
					o.landmarks = append(o.landmarks[:0], intact...)
					e.d.mu.Unlock()
				})
			}
			s0 := e.d.GetStats()
			re := *e
			re.t = t
			verifySnaps(&re, id, snaps)
			st := e.d.GetStats()
			hits, walked := st.LandmarkHits-s0.LandmarkHits, st.HistoryWalkEntries-s0.HistoryWalkEntries
			t.Logf("%d reads: %d landmark hits, %d entries walked", versions, hits, walked)
			if row.name != "indexed" {
				if hits != 0 {
					t.Fatalf("%d reads anchored at a spoiled landmark", hits)
				}
				return
			}
			if hits < versions/2 {
				t.Fatalf("only %d of %d reads anchored at a landmark", hits, versions)
			}
			// A full walk averages versions/2 undos per read; the landmark
			// walk is bounded by the checkpoint cadence. Leave generous
			// slack for the fallback reads near the live head.
			if walked > int64(versions)*10 {
				t.Fatalf("%d walk entries over %d reads: landmark acceleration not engaged",
					walked, versions)
			}
		})
	}
	if err := e.d.CheckLandmarks(); err != nil {
		t.Fatal(err)
	}
}

// smallBlockCache shrinks the block cache to 64KB so that history
// reconstruction pays device reads instead of memory copies.
func smallBlockCache(o *Options) { o.BlockCacheBytes = 64 << 10 }

// deepReadCost stacks depth versions on a fresh 2-block object, then
// reads `reads` of the oldest tenth back in time, checking every byte.
// It returns device reads and journal entries walked per read.
func deepReadCost(e *testEnv, depth, reads int) (devReads, walked float64) {
	t := e.t
	t.Helper()
	id := e.create(alice)
	snaps := writeVersions(e, id, depth, 2*int(types.BlockSize), 14)
	// Anchor any pending landmark checkpoints at a chain position.
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s0 := e.d.GetStats()
	for i := 0; i < reads; i++ {
		verifySnaps(e, id, []versionSnap{snaps[rng.Intn(depth/10)]})
	}
	s1 := e.d.GetStats()
	return float64(s1.DeviceReads-s0.DeviceReads) / float64(reads),
		float64(s1.HistoryWalkEntries-s0.HistoryWalkEntries) / float64(reads)
}

// TestDeepHistoryReadCost holds the cost of reading ~1,000 versions
// back with default landmarks: the index bounds the walk by the
// checkpoint cadence, not the depth, and vectored reads keep the device
// cost at a handful of I/Os. Both are counts, exact for the seeded
// workload: 3.2 reads and 12.5 entries per read (59 and 950 with
// landmarks and the reconstruction cache off).
func TestDeepHistoryReadCost(t *testing.T) {
	e := newTestDrive(t, smallBlockCache)
	devReads, walked := deepReadCost(e, 1000, 40)
	t.Logf("1000-deep read: %.2f device reads, %.1f entries walked per read", devReads, walked)
	if devReads > 5 {
		t.Errorf("%.2f device reads per 1000-deep read, want <= 5", devReads)
	}
	if every := e.d.opts.CheckpointEvery; walked > float64(2*every) {
		t.Errorf("%.1f entries walked per 1000-deep read, want <= 2 x CheckpointEvery (%d)", walked, every)
	}
}

// TestLandmarkDisabledStillCorrect is the ablation control: with the
// index disabled the same workload reads back identically (and no
// landmark ever fires).
func TestLandmarkDisabledStillCorrect(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.CheckpointEvery = -1
		o.reconCacheBytes = -1
	})
	id := e.create(alice)
	snaps := writeVersions(e, id, 60, 2*int(types.BlockSize), 12)
	verifySnaps(e, id, snaps)
	if st := e.d.GetStats(); st.LandmarkHits != 0 {
		t.Fatalf("landmarks disabled, yet %d hits", st.LandmarkHits)
	}
}

// TestLandmarkIndexSurvivesRecovery proves the rebuild: after a close
// and reopen the index passes the strict completeness check and serves
// the same bytes.
func TestLandmarkIndexSurvivesRecovery(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.CheckpointEvery = 4 })
	id := e.create(alice)
	snaps := writeVersions(e, id, 80, 2*int(types.BlockSize), 13)
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if err := e.d.CheckLandmarks(); err != nil {
		t.Fatal(err)
	}
	verifySnaps(e, id, snaps)
	if st := e.d.GetStats(); st.LandmarkHits == 0 {
		t.Fatal("no landmark hits after recovery: index not rebuilt")
	}
}

// TestReconCacheServesRepeats: the second identical historical read
// must come out of the reconstruction cache, byte-identical.
func TestReconCacheServesRepeats(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	snaps := writeVersions(e, id, 40, 2*int(types.BlockSize), 14)
	sn := snaps[10]
	first := e.read(alice, id, 0, uint64(len(sn.data)), sn.at)
	st0 := e.d.GetStats()
	second := e.read(alice, id, 0, uint64(len(sn.data)), sn.at)
	st1 := e.d.GetStats()
	if !bytes.Equal(first, sn.data) || !bytes.Equal(second, sn.data) {
		t.Fatal("historical read diverged from oracle")
	}
	if st1.ReconCacheHits <= st0.ReconCacheHits {
		t.Fatalf("repeat lookup missed the reconstruction cache (hits %d -> %d)",
			st0.ReconCacheHits, st1.ReconCacheHits)
	}
}

// TestReconCacheInvalidatedByFlush: administrative history erasure must
// drop cached reconstructions, or a read inside the erased range would
// resurrect the erased version from memory.
func TestReconCacheInvalidatedByFlush(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("state-A"))
	tA := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("state-B"))
	tB := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("state-C"))
	if got := e.read(admin, id, 0, 7, tB); string(got) != "state-B" {
		t.Fatalf("pre-flush read at tB = %q", got)
	}
	if err := e.d.FlushO(admin, id, tA, tB); err != nil {
		t.Fatal(err)
	}
	// B is erased; tB must resolve to the range-start state, not the
	// cached reconstruction of B.
	if got := e.read(admin, id, 0, 7, tB); string(got) != "state-A" {
		t.Fatalf("post-flush read at tB = %q, want the erased range collapsed to A", got)
	}
}

// TestReconCacheUnit exercises the interval cache directly: lookups
// inside [from, to), overlap rejection, same-start extension, byte
// budget eviction, and the two invalidation forms.
func TestReconCacheUnit(t *testing.T) {
	id := types.ObjectID(7)
	in1, in2, in3 := &Inode{}, &Inode{}, &Inode{}
	c := newReconCache(600) // two empty-inode entries (256B each) fit, three do not

	c.put(id, 10, 20, in1, c.epoch(id))
	if got := c.get(id, 10); got != in1 {
		t.Fatal("lookup at interval start missed")
	}
	if got := c.get(id, 19); got != in1 {
		t.Fatal("lookup inside interval missed")
	}
	if got := c.get(id, 20); got != nil {
		t.Fatal("interval end is exclusive")
	}
	if got := c.get(id, 9); got != nil {
		t.Fatal("lookup before interval hit")
	}

	// Overlapping insert keeps the incumbent.
	c.put(id, 15, 25, in2, c.epoch(id))
	if got := c.get(id, 22); got != nil {
		t.Fatal("overlapping insert was admitted")
	}
	// Same-start insert extends the bound without replacing the inode.
	c.put(id, 10, 30, in2, c.epoch(id))
	if got := c.get(id, 25); got != in1 {
		t.Fatal("same-start insert did not extend the incumbent")
	}

	c.put(id, 30, 40, in2, c.epoch(id))
	if got := c.get(id, 35); got != in2 {
		t.Fatal("disjoint insert missed")
	}
	c.put(id, 40, 50, in3, c.epoch(id)) // over budget: evicts the LRU entry
	if c.lru.Len() != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", c.lru.Len())
	}

	c.put(id, 10, 30, in1, c.epoch(id))
	c.dropBelow(id, 30)
	if got := c.get(id, 15); got != nil {
		t.Fatal("dropBelow left an interval wholly below the cut")
	}
	c.dropObject(id)
	if c.lru.Len() != 0 || len(c.byObj) != 0 {
		t.Fatal("dropObject left entries behind")
	}
	hits, misses := c.counters()
	if hits == 0 || misses == 0 {
		t.Fatalf("counters hits=%d misses=%d", hits, misses)
	}
}

// TestBlockCachePoison enforces the trust-boundary half of the block
// cache's sharing contract: bytes handed to a client are a private
// copy, so poisoning them cannot corrupt what other readers see.
func TestBlockCachePoison(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	golden := bytes.Repeat([]byte{0xC3}, 2*int(types.BlockSize))
	e.write(alice, id, 0, golden)

	got := e.read(alice, id, 0, uint64(len(golden)), types.TimeNowest)
	for i := range got {
		got[i] = 0xFF // poison the returned buffer
	}
	again := e.read(alice, id, 0, uint64(len(golden)), types.TimeNowest)
	if !bytes.Equal(again, golden) {
		t.Fatal("poisoning a returned read buffer corrupted the cache")
	}

	// The in-cache half of the contract: repeated gets share one backing
	// array (the cache never copies), which is why callers must treat it
	// as read-only.
	c := newBlockCache(1 << 16)
	blk := bytes.Repeat([]byte{0x5A}, int(types.BlockSize))
	c.put(42, blk)
	g1, g2 := c.get(42), c.get(42)
	if &g1[0] != &g2[0] {
		t.Fatal("cache copied on get; the read path depends on shared buffers")
	}
}

// TestBlockCacheDropRangeSparse covers both dropRange strategies: the
// address walk for small ranges and the map walk when the range dwarfs
// the population.
func TestBlockCacheDropRangeSparse(t *testing.T) {
	c := newBlockCache(1 << 20)
	blk := func() []byte { return make([]byte, 64) }
	c.put(5, blk())
	c.put(6, blk())
	c.put(7, blk())
	c.dropRange(6, 8) // small range: address walk
	if c.get(5) == nil || c.get(6) != nil || c.get(7) != nil {
		t.Fatal("small dropRange removed the wrong entries")
	}
	c.put(100, blk())
	c.put(1<<30, blk())
	c.dropRange(0, 1<<40) // range >> population: map walk
	if len(c.byAddr) != 0 || c.curBytes != 0 {
		t.Fatalf("sparse dropRange left %d entries, %d bytes", len(c.byAddr), c.curBytes)
	}
}

// TestVectoredReadCoalesces: a cold multi-block read of a contiguous
// extent must reach the device as a handful of vectored run reads, not
// one I/O per block.
func TestVectoredReadCoalesces(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	const blocks = 8
	data := make([]byte, blocks*int(types.BlockSize))
	for i := range data {
		data[i] = byte(i)
	}
	e.write(alice, id, 0, data) // one vectored append: contiguous blocks
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen() // cold block cache, empty staging buffers

	st0 := e.d.GetStats()
	got := e.read(alice, id, 0, uint64(len(data)), types.TimeNowest)
	st1 := e.d.GetStats()
	if !bytes.Equal(got, data) {
		t.Fatal("cold read content mismatch")
	}
	dev := st1.DeviceReads - st0.DeviceReads
	if dev == 0 || dev > 2 {
		// One run, or two when the extent straddles a segment seal.
		t.Fatalf("cold %d-block read cost %d device reads, want 1-2", blocks, dev)
	}
	if st1.VecReads == st0.VecReads {
		t.Fatal("no vectored device read issued")
	}
	if st1.ReadOps != st0.ReadOps+1 {
		t.Fatalf("ReadOps %d -> %d, want +1", st0.ReadOps, st1.ReadOps)
	}
}

// TestHistoryReadsRaceCleaner races golden historical reads against a
// writer stacking new versions and the cleaner aging old ones out, with
// landmark checkpoints emitted throughout. Every read must return the
// recorded bytes or a clean ErrNoVersion once its instant ages out —
// never torn data and never an internal error. Run under -race this
// also proves the landmark/recon invalidation never touches state a
// concurrent walker holds.
func TestHistoryReadsRaceCleaner(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.Window = time.Second
		o.CheckpointEvery = 8
	})
	id := e.create(alice)
	scale := stressScale()
	seedVersions := 500 / scale
	rounds := 600 / scale

	rng := rand.New(rand.NewSource(21))
	size := 2 * int(types.BlockSize)
	content := make([]byte, size)
	if err := e.d.Write(alice, id, 0, content); err != nil {
		t.Fatal(err)
	}
	e.tick()
	snaps := make([]versionSnap, 0, seedVersions)
	for i := 0; i < seedVersions; i++ {
		wn := 1 + rng.Intn(128)
		off := rng.Intn(size - wn)
		patch := make([]byte, wn)
		rng.Read(patch)
		if err := e.d.Write(alice, id, uint64(off), patch); err != nil {
			t.Fatal(err)
		}
		copy(content[off:], patch)
		snaps = append(snaps, versionSnap{at: e.d.Now(), data: append([]byte(nil), content...)})
		e.tick()
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: keeps stacking versions, advancing the clock
		defer wg.Done()
		defer close(stop) // writer finishing (or failing) ends the run
		wrng := rand.New(rand.NewSource(22))
		for r := 0; r < rounds; r++ {
			patch := make([]byte, 64)
			wrng.Read(patch)
			if err := e.d.Write(alice, id, uint64(wrng.Intn(size-64)), patch); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
			e.tick()
		}
	}()

	wg.Add(1)
	go func() { // cleaner: ages history out from under the readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.d.CleanOnce(); err != nil {
				errs <- fmt.Errorf("cleaner: %w", err)
				return
			}
		}
	}()

	for rd := 0; rd < 3; rd++ {
		rd := rd
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(23 + rd)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := snaps[rrng.Intn(len(snaps))]
				got, err := e.d.Read(alice, id, 0, uint64(len(sn.data)), sn.at)
				if err != nil {
					if errors.Is(err, types.ErrNoVersion) {
						continue // aged out: the only acceptable failure
					}
					errs <- fmt.Errorf("reader %d at %v: %w", rd, sn.at, err)
					return
				}
				if !bytes.Equal(got, sn.data) {
					errs <- fmt.Errorf("reader %d at %v: torn historical read", rd, sn.at)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-churn: a final golden pass and the full invariant suite.
	for _, sn := range snaps {
		got, err := e.d.Read(alice, id, 0, uint64(len(sn.data)), sn.at)
		if err != nil {
			if errors.Is(err, types.ErrNoVersion) {
				continue
			}
			t.Fatal(err)
		}
		if !bytes.Equal(got, sn.data) {
			t.Fatalf("final pass at %v: content diverged", sn.at)
		}
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := e.d.GetStats(); st.LandmarkHits == 0 {
		t.Fatal("no landmark hits during the race")
	}
}

// TestLandmarkHitReadsOneSector: a history read that anchors at a
// landmark decodes the image from the landmark's own entry, which the
// walk reads anyway, so from a cold cache a read whose state is in that
// sector reads the landmark's journal block and nothing else. When the
// image was a root block of its own, the same read read that block too.
func TestLandmarkHitReadsOneSector(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.CheckpointEvery = 4
		o.reconCacheBytes = -1
	})
	id := e.create(alice)
	writeVersions(e, id, 200, 2*int(types.BlockSize), 5)
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d, o := e.d, e.d.objects[id]
	// A landmark in a sealed segment whose sector also holds its trigger
	// and the entry below it: a read just before the landmark stops at
	// that entry.
	var ln landmark
	d.mu.Lock()
	for _, l := range o.landmarks {
		if d.log.InOpenSegment(l.sector.Block()) {
			continue
		}
		var scratch []byte
		_, entries, err := d.readJSector(id, l.sector, &scratch)
		if err != nil {
			d.mu.Unlock()
			t.Fatal(err)
		}
		if i := slices.IndexFunc(entries, func(e journal.Entry) bool {
			return e.Type == journal.EntCheckpoint && e.Version == l.version
		}); i >= 2 {
			ln = l
			break
		}
	}
	d.cache.dropRange(0, seglog.BlockAddr(d.log.NumSegments()*int64(d.opts.SegBlocks)+1024))
	d.mu.Unlock()
	if ln.sector == journal.NilSector {
		t.Fatal("no landmark in a sealed segment has two entries below it in its sector")
	}
	s0, r0 := d.GetStats(), e.dev.Stats().Reads
	if _, err := d.GetAttr(alice, id, ln.time-1); err != nil {
		t.Fatal(err)
	}
	st, reads := d.GetStats(), e.dev.Stats().Reads-r0
	t.Logf("history read anchored at v%d in sector %d: %d device reads, %d entries walked", ln.version, ln.sector, reads, st.HistoryWalkEntries-s0.HistoryWalkEntries)
	if st.LandmarkHits-s0.LandmarkHits != 1 {
		t.Fatalf("the read did not anchor at the landmark (%d hits)", st.LandmarkHits-s0.LandmarkHits)
	}
	if reads != 1 {
		t.Errorf("the read issued %d device reads, want 1: the landmark's journal block", reads)
	}
}

// TestOversizedImageGetsNoLandmark: a landmark entry must fit one
// journal sector, so an object whose image is larger than a sector
// holds gets none once it grows that large (the writes that fill its
// 200 blocks emit a few while it is smaller), and every history read of
// it since takes the full walk and reproduces what was written
// (TestLandmarkWalkMatchesFullWalk's oracle). A small object on the same
// drive gets its landmarks.
func TestOversizedImageGetsNoLandmark(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.CheckpointEvery = 4
		o.reconCacheBytes = -1
	})
	big, small := e.create(alice), e.create(alice)
	const versions = 40
	var full uint64 // the version that wrote the last of its 200 blocks
	snaps := writeVersions(e, big, versions, 200*int(types.BlockSize), 3, func() {
		if full == 0 {
			full = e.d.objects[big].ino.Version - 1
		}
	})
	writeVersions(e, small, versions, 2*int(types.BlockSize), 4)
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o := e.d.objects[big]
	if n := len(o.ino.image()); n <= journal.SectorCapacity {
		t.Fatalf("a %d-block image is %d bytes, which fits a sector's %d", o.ino.NumBlocks(), n, journal.SectorCapacity)
	}
	if n := len(e.d.objects[small].landmarks); n < versions/4-1 {
		t.Fatalf("the small object has %d landmarks over %d versions", n, versions)
	}
	entries := 0
	err := e.d.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, sec []journal.Entry) (bool, error) {
		for i := range sec {
			if sec[i].Type == journal.EntCheckpoint && sec[i].Version > full {
				return true, fmt.Errorf("v%d: a landmark entry for a %d-byte image", sec[i].Version, len(sec[i].Image))
			}
		}
		entries += len(sec)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(o.landmarks); n > 0 && o.landmarks[n-1].version > full {
		t.Fatalf("landmark v%d indexed past v%d", o.landmarks[n-1].version, full)
	}
	s0 := e.d.GetStats()
	verifySnaps(e, big, snaps)
	st := e.d.GetStats()
	t.Logf("%d entries in the chain; %d reads walked %d entries, %d anchored at a landmark", entries, versions, st.HistoryWalkEntries-s0.HistoryWalkEntries, st.LandmarkHits-s0.LandmarkHits)
	if st.LandmarkHits != s0.LandmarkHits {
		t.Errorf("%d reads anchored at a landmark", st.LandmarkHits-s0.LandmarkHits)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
