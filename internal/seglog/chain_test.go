package seglog

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"s4/internal/disk"
	"s4/internal/types"
)

// The threaded log (DESIGN.md §14.5): every summary names the segment
// opened before it and the successor the allocator promised to open after
// it, and recovery walks that chain from the checkpoint instead of reading
// every segment. These are the walk's crash windows, each holding every
// write a Sync acknowledged, and its equivalence with the probe of every
// segment it replaces.

// content is a recognisable payload for the n-th block a test appends.
func content(n int) []byte { return bytes.Repeat([]byte{byte(n), byte(n >> 8), 0x5A}, 20) }

// stager appends distinct blocks and remembers what each address holds.
type stager struct {
	n     int
	wrote map[BlockAddr][]byte
}

func (s *stager) add(t *testing.T, l *Log, n int) {
	t.Helper()
	if s.wrote == nil {
		s.wrote = make(map[BlockAddr][]byte)
	}
	for i := 0; i < n; i++ {
		s.n++
		a, err := l.Append(KindData, 1, uint64(s.n), types.Timestamp(s.n), content(s.n))
		if err != nil {
			t.Fatal(err)
		}
		s.wrote[a] = content(s.n)
	}
}

// drop forgets the blocks of a freed segment.
func (s *stager) drop(l *Log, seg int64) {
	for a := range s.wrote {
		if l.SegOf(a) == seg {
			delete(s.wrote, a)
		}
	}
}

// recovered opens dev as the drive's recovery does: the checkpoint, the
// segments the drive's own state says hold data (alloc — core's segment
// index marks these), then the scan from the checkpoint, each hit marked
// allocated. It returns the log and each hit segment's seq.
func recovered(t *testing.T, dev disk.Device, alloc map[int64]bool) (*Log, map[int64]uint64) {
	t.Helper()
	l := reopen(t, dev)
	_, _, seq, _, err := l.ReadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for seg := range alloc {
		l.MarkAllocated(seg)
	}
	hits := make(map[int64]uint64)
	if err := l.ScanFrom(seq, func(seg int64, sum Summary) error {
		hits[seg] = sum.Seq
		l.MarkAllocated(seg)
		l.SetSeq(sum.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return l, hits
}

// holdsAll checks that l's summaries cover every block of wrote (but
// those in the segments of skip) and that each still reads back.
func holdsAll(t *testing.T, l *Log, wrote map[BlockAddr][]byte, skip ...int64) {
	t.Helper()
	buf := make([]byte, BlockSize)
	for a, want := range wrote {
		seg := l.SegOf(a)
		if slices.Contains(skip, seg) {
			continue
		}
		sum, ok, err := l.ReadSummary(seg)
		if err != nil {
			t.Fatal(err)
		}
		if i := int(int64(a) - int64(l.EntryAt(seg, 0))); !ok || i >= len(sum.Entries) {
			t.Fatalf("acked block %d of segment %d: no summary covers it", a, seg)
		}
		if err := l.Read(a, buf); err != nil || !bytes.Equal(buf[:len(want)], want) {
			t.Fatalf("acked block %d: %v, content differs", a, err)
		}
	}
}

// TestSecondCrashFollowsHeldChain crashes twice with no checkpoint
// between. The first crash abandons a segment whose open record is
// durable and whose first snapshot is not: nothing in it was
// acknowledged, nothing marks it allocated, and the segment allocator
// would hand it out again at once — overwriting the record the chain
// passes through, so the second crash's walk would find a segment that
// names another predecessor and probe every segment. Recovery holds the
// chain it walked back from reuse until the next checkpoint, so the
// second life opens elsewhere and the second open still reads only the
// chain.
func TestSecondCrashFollowsHeldChain(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	var s stager
	s.add(t, l, 3)
	mustSync(t, l)
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	for l.CurrentSegment() == 0 {
		s.add(t, l, 1)
	}
	s.add(t, l, 1)
	abandoned := l.CurrentSegment()
	dev.StartRecording()
	mustSync(t, l)
	img, err := dev.ImageAt(1) // the record and the block, not the snapshot
	if err != nil {
		t.Fatal(err)
	}
	first := s.wrote
	delete(first, l.EntryAt(abandoned, 0))

	l2, hits := recovered(t, img, map[int64]bool{0: true})
	if _, ok := hits[0]; len(hits) != 1 || !ok {
		t.Fatalf("first recovery hit %v, want segment 0", hits)
	}
	holdsAll(t, l2, first)
	if !l2.IsFree(abandoned) || !l2.held[abandoned] {
		t.Fatalf("segment %d: free=%v held=%v, want free and held", abandoned, l2.IsFree(abandoned), l2.held[abandoned])
	}
	// The second life fills the promised successor and opens the next.
	s2 := stager{n: 1000}
	for opened := []int64{}; len(opened) < 2; {
		s2.add(t, l2, 1)
		if cur := l2.CurrentSegment(); cur >= 0 && !slices.Contains(opened, cur) {
			opened = append(opened, cur)
			if cur == abandoned {
				t.Fatalf("the second life reopened segment %d, which the chain runs through", cur)
			}
		}
	}
	mustSync(t, l2)

	cnt := &readCounter{Device: img}
	l3, hits := recovered(t, cnt, map[int64]bool{0: true})
	t.Logf("second open of a %d-segment log: %d one-block and %d vectored reads, %d hits",
		l3.NumSegments(), cnt.single, cnt.vectored, len(hits))
	// Superblock, two checkpoint slot headers and the checkpoint; the
	// chain's four segments and the block 0 that ends it; the rest of the
	// abandoned segment and of the open one.
	if cnt.single != 1+3+5 || cnt.vectored != 2 {
		t.Fatalf("second open: %d one-block and %d vectored reads, want 9 and 2", cnt.single, cnt.vectored)
	}
	if why := walkWhy(t, img); why != "" {
		t.Fatalf("second recovery fell back: %s", why)
	}
	holdsAll(t, l3, first)
	holdsAll(t, l3, s2.wrote)
}

// TestRottedSealMidChainFallsBack rots the seal summary of a segment in
// the middle of the chain, one sealed without a partial flush, so no
// snapshot stands behind it: its successor is unknowable. The walk must
// not take that for the end of the log — the segments after it hold
// acknowledged writes — so the scan probes every segment. What the rotted
// summary described is lost to any scan; everything else is kept.
func TestRottedSealMidChainFallsBack(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	var s stager
	s.add(t, l, 3*l.PayloadBlocks()+2)
	mustSync(t, l)
	rotBlock(dev, BlockAddr(l.segBase(1)))

	if why := walkWhy(t, dev); !strings.Contains(why, "segment 1 holds neither") {
		t.Fatalf("walk past a rotted seal: %q, want a fallback at segment 1", why)
	}
	lr, hits := recovered(t, dev, nil)
	for _, seg := range []int64{0, 2, 3} {
		if _, ok := hits[seg]; !ok {
			t.Fatalf("recovery hit %v, missing segment %d", hits, seg)
		}
	}
	holdsAll(t, lr, s.wrote, 1)
	if lr.nextSeg != -1 || lr.lastSeg != -1 || len(lr.held) != 0 {
		t.Fatalf("after a fallback: next=%d last=%d held=%v, want no promise and nothing held", lr.nextSeg, lr.lastSeg, lr.held)
	}
}

// TestRottedSealBehindStaleSnapshot rots the seal of a segment whose
// partial snapshot names an older promise: segment 1 synced a snapshot
// promising 2, the cleaner then freed segment 0, the promise moved to it,
// and the seal named 0, which opened next and holds acknowledged writes.
// With the seal gone the snapshot is segment 1's newest summary; the walk
// may follow it to 2, but 2 never opened, and taking that for the end of
// the log would drop segment 0's new life. The scan probes instead.
func TestRottedSealBehindStaleSnapshot(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	var s stager
	s.add(t, l, l.PayloadBlocks())
	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	s.add(t, l, 1)
	mustSync(t, l)
	if l.CurrentSegment() != 1 || l.nextSeg != 2 {
		t.Fatalf("segment %d open promising %d, want 1 promising 2", l.CurrentSegment(), l.nextSeg)
	}
	if err := l.FreeSegment(0); err != nil {
		t.Fatal(err)
	}
	s.drop(l, 0)
	s.add(t, l, l.Room()+2)
	mustSync(t, l)
	if cur := l.CurrentSegment(); cur != 0 {
		t.Fatalf("segment 1 was succeeded by %d, want 0, freed while it was open", cur)
	}
	rotBlock(dev, BlockAddr(l.segBase(1)))

	if why := walkWhy(t, dev); !strings.Contains(why, "segment 1, whose block 0 is no summary") {
		t.Fatalf("walk past a rotted seal behind a stale snapshot: %q, want a fallback at segment 1", why)
	}
	lr, hits := recovered(t, dev, nil)
	if _, ok := hits[0]; !ok {
		t.Fatalf("recovery hit %v, missing segment 0's new life", hits)
	}
	holdsAll(t, lr, s.wrote, 1)
}

// TestChainWithNoFreeSuccessor fills the log until a segment opens with
// no free segment left to promise. Its summaries name none, so a walk
// that reaches it cannot tell what opened after it, and probes every
// segment. While that segment is open the promise can still move: once
// the cleaner frees a segment behind a checkpoint, the open segment's
// next summary and its seal name it, and the walk follows the log again.
func TestChainWithNoFreeSuccessor(t *testing.T) {
	dev := disk.New(disk.SmallDisk(1<<20), nil)
	if err := Format(dev, Config{SegBlocks: 8, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	l := reopen(t, dev)
	n := int(l.NumSegments())
	var s stager
	s.add(t, l, n*l.PayloadBlocks()-3)
	mustSync(t, l)
	last := l.CurrentSegment()
	if last != int64(n-1) || l.nextSeg != -1 {
		t.Fatalf("last segment %d opened promising %d, want %d promising none", last, l.nextSeg, n-1)
	}
	if why := walkWhy(t, dev); !strings.Contains(why, "no free segment") {
		t.Fatalf("walk to a segment without successor: %q", why)
	}
	lr, hits := recovered(t, dev, nil)
	if len(hits) != n {
		t.Fatalf("recovery hit %d of %d segments", len(hits), n)
	}
	holdsAll(t, lr, s.wrote)

	if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
		t.Fatal(err)
	}
	alloc := make(map[int64]bool)
	for seg := int64(0); seg < int64(n); seg++ {
		alloc[seg] = true
	}
	for seg := int64(2); seg < 6; seg++ {
		if err := l.FreeSegment(seg); err != nil {
			t.Fatal(err)
		}
		delete(alloc, seg)
		s.drop(l, seg)
	}
	if l.nextSeg != 2 {
		t.Fatalf("open segment %d promises %d after the frees, want 2", last, l.nextSeg)
	}
	s.add(t, l, 1)
	mustSync(t, l)
	if why := walkWhy(t, dev); why != "" {
		t.Fatalf("walk once the open segment promises a successor: %s", why)
	}
	s.add(t, l, l.Room()+2)
	mustSync(t, l)
	if cur := l.CurrentSegment(); cur != 2 {
		t.Fatalf("the open after the full log took segment %d, want the promised 2", cur)
	}
	if why := walkWhy(t, dev); why != "" {
		t.Fatalf("walk past the full log: %s", why)
	}
	lr, _ = recovered(t, dev, alloc)
	holdsAll(t, lr, s.wrote)
}

// TestPropertyChainWalkMatchesProbe runs random sequences of appends,
// syncs, seals, checkpoints (each after a Sync, as the drive takes them)
// and frees of segments closed before the last checkpoint (as the
// drive's cleaner frees them, behind its checkpoint barrier), across
// three lives joined by a crash and a recovery, which also releases one
// chain segment the way the drive's usage rebuild may. On every write
// prefix of every life, the walk from the checkpoint must return exactly
// the hits of the probe of every segment — and never need to fall back.
func TestPropertyChainWalkMatchesProbe(t *testing.T) {
	images, walked := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		dev := disk.New(disk.SmallDisk(4<<20), nil)
		if err := Format(dev, Config{SegBlocks: 8, CheckpointBlocks: 4}); err != nil {
			t.Fatal(err)
		}
		l := reopen(t, dev)
		alloc := make(map[int64]bool)    // segments holding data, as the drive's index would say
		freeable := make(map[int64]bool) // of those, closed before the last checkpoint
		var held map[int64]bool          // what recovery held back, until the next checkpoint
		var s stager
		appendOne := func() {
			s.add(t, l, 1)
			if cur := l.CurrentSegment(); cur >= 0 && !alloc[cur] {
				if held[cur] {
					t.Fatalf("seed %d: reopened held segment %d before a checkpoint", seed, cur)
				}
				alloc[cur] = true
			}
		}
		for life := 0; life < 3; life++ {
			dev.StartRecording()
			for step := 0; step < 150; step++ {
				switch r := rnd.Intn(20); {
				case r < 10:
					for n := 1 + rnd.Intn(3); n > 0; n-- {
						appendOne()
					}
				case r < 13:
					mustSync(t, l)
				case r < 15:
					for cur := l.CurrentSegment(); cur >= 0 && l.CurrentSegment() == cur; {
						appendOne()
					}
				case r < 17:
					mustSync(t, l)
					if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
						t.Fatal(err)
					}
					held = nil
					for seg := range alloc {
						if seg != l.CurrentSegment() {
							freeable[seg] = true
						}
					}
				default:
					for seg := range freeable {
						if err := l.FreeSegment(seg); err != nil {
							t.Fatal(err)
						}
						delete(freeable, seg)
						delete(alloc, seg)
						s.drop(l, seg)
						break
					}
				}
			}
			mustSync(t, l)
			for k := 0; k <= dev.Writes(); k++ {
				img, err := dev.ImageAt(k)
				if err != nil {
					t.Fatal(err)
				}
				images++
				li := reopen(t, img)
				if _, _, _, _, err := li.ReadCheckpoint(); err != nil {
					t.Fatal(err)
				}
				b := &scanBuf{blk: make([]byte, BlockSize)}
				walk, _, why, err := li.walkChain(li.anchor, b)
				if err != nil {
					t.Fatal(err)
				}
				if why != "" {
					t.Fatalf("seed %d life %d crash@%d: the walk fell back: %s", seed, life, k, why)
				}
				probe, err := li.probeAll(li.anchor.seq, b)
				if err != nil {
					t.Fatal(err)
				}
				if !sameHits(walk, probe) {
					t.Fatalf("seed %d life %d crash@%d: walk hit %v, probe %v", seed, life, k, hitSeqs(walk), hitSeqs(probe))
				}
				walked += len(walk)
			}
			img, err := dev.ImageAt(dev.Writes())
			if err != nil {
				t.Fatal(err)
			}
			var hits map[int64]uint64
			dev = img
			l, hits = recovered(t, img, alloc)
			holdsAll(t, l, s.wrote)
			held = make(map[int64]bool)
			for seg := range l.held {
				held[seg] = true
			}
			for seg := range hits {
				// The usage rebuild frees a chain segment it finds empty.
				if err := l.FreeSegment(seg); err != nil {
					t.Fatal(err)
				}
				delete(alloc, seg)
				delete(freeable, seg)
				s.drop(l, seg)
				break
			}
		}
	}
	t.Logf("%d crash images, %d hits, walk and probe agreed on all", images, walked)
	if walked == 0 {
		t.Fatal("no image had a segment written since its checkpoint")
	}
}

func sameHits(a, b []hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].seg != b[i].seg || a[i].sum.Seq != b[i].sum.Seq || len(a[i].sum.Entries) != len(b[i].sum.Entries) {
			return false
		}
	}
	return true
}

func hitSeqs(hs []hit) [][2]uint64 {
	out := make([][2]uint64, len(hs))
	for i, h := range hs {
		out[i] = [2]uint64{uint64(h.seg), h.sum.Seq}
	}
	return out
}

// TestSummaryReadErrorFailsTheRead fails the device read of a segment's
// summary behind a read of one of its blocks that rotted on the media.
// The read must fail with the device's error: taking "the device would
// not say" for "no checksum" returned the rotted bytes with no error.
// Nothing is cached, so the next read, on a device that answers, finds
// the rot.
func TestSummaryReadErrorFailsTheRead(t *testing.T) {
	l, dev := newFaultLog(t, 8)
	var s stager
	s.add(t, l, 2*l.PayloadBlocks())
	mustSync(t, l)
	victim := l.EntryAt(0, 1)
	rotBlock(dev, victim)
	lr := reopen(t, dev)
	errBoom := errors.New("boom")
	dev.FailAfter(1, errBoom) // the block's read succeeds, the summary's fails
	buf := make([]byte, BlockSize)
	if err := lr.Read(victim, buf); !errors.Is(err, errBoom) {
		t.Fatalf("read with the summary unreadable: %v, want the device's error", err)
	}
	var ce *types.CorruptError
	if err := lr.Read(victim, buf); !errors.As(err, &ce) {
		t.Fatalf("read once the device answers: %v, want a CorruptError", err)
	}
}
