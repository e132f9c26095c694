package core

import (
	"bytes"
	"testing"
	"time"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// relocEnv is a drive on which the cleaner's next pass will copy a live
// block of a landmark-bearing object forward: obj's block 0 shares the
// first segment with fourteen blocks of a neighbour that have all been
// superseded and have aged out, while obj's block 1 carries twenty
// in-window versions and the landmarks that index them.
type relocEnv struct {
	*testEnv
	obj     types.ObjectID
	orig    []byte           // obj's block 0, written once
	oldAddr seglog.BlockAddr // where it sits before the cleaner runs
	at      types.Timestamp  // in-window instant below every landmark
	lms     int              // landmarks indexed before the cleaner runs
}

func newRelocEnv(t *testing.T) *relocEnv {
	e := newTestDrive(t, func(o *Options) { o.CheckpointEvery = 4 })
	r := &relocEnv{testEnv: e, orig: bytes.Repeat([]byte{'O'}, types.BlockSize)}
	r.obj = e.create(alice)
	nb := e.create(alice)
	// One block of obj and fourteen of the neighbour fill the first
	// segment's payload exactly, so the journal lands in the next one
	// and nothing but obj's block pins the segment once the neighbour's
	// copies are gone.
	e.write(alice, r.obj, 0, r.orig)
	e.write(alice, nb, 0, bytes.Repeat([]byte{'n'}, 14*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.write(alice, nb, 0, bytes.Repeat([]byte{'N'}, 14*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(2 * time.Hour) // window is 1h: the neighbour's first copies age
	for i := 0; i < 20; i++ {
		e.write(alice, r.obj, types.BlockSize, bytes.Repeat([]byte{byte('a' + i)}, types.BlockSize))
		if i == 0 {
			r.at = e.d.Now()
			e.tick()
		}
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	o := e.d.objects[r.obj]
	r.oldAddr, r.lms = o.ino.Block(0), len(o.landmarks)
	if r.lms < 3 {
		t.Fatalf("only %d landmarks indexed; the scenario needs several", r.lms)
	}
	// The read this test is about anchors at a landmark while it can.
	before := e.d.GetStats().LandmarkHits
	if got := e.read(admin, r.obj, 0, types.BlockSize, r.at); !bytes.Equal(got, r.orig) {
		t.Fatalf("before the relocation block 0 at %v reads %.8q", r.at, got)
	}
	if e.d.GetStats().LandmarkHits <= before {
		t.Fatal("the history read did not anchor at a landmark before the relocation")
	}
	return r
}

// relocate runs one cleaner pass and checks it moved obj's block 0.
func (r *relocEnv) relocate() {
	r.t.Helper()
	if _, err := r.d.CleanOnce(); err != nil {
		r.t.Fatal(err)
	}
	if now := r.d.objects[r.obj].ino.Block(0); now == r.oldAddr {
		r.t.Fatalf("block 0 still at %d: the cleaner relocated nothing", now)
	}
}

// TestRelocatedBlockHistorySurvivesRestart: a landmark root is a full
// inode image, so it names the live blocks of its day. When the cleaner
// moves one of those blocks it retires the object's landmarks, and that
// decision must survive a restart: a recovery that re-indexes the
// chain's checkpoint entries because their roots still decode hands a
// history read an image whose block 0 points into a segment that has
// since been freed and refilled — another object's bytes, err == nil.
func TestRelocatedBlockHistorySurvivesRestart(t *testing.T) {
	modes := []struct {
		name                  string
		restart, disableIndex bool
	}{
		{"no-restart", false, false},
		{"indexed", true, false},
		{"full-scan", true, true},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			r := newRelocEnv(t)
			r.relocate()
			if n := len(r.d.objects[r.obj].landmarks); n != 0 {
				t.Fatalf("%d landmarks still indexed after the relocation", n)
			}
			// The barrier: the move, the landmark floor and the freed
			// segment become durable together.
			if err := r.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if m.restart {
				opts := r.d.opts
				opts.DisableSegIndex = m.disableIndex
				if err := r.d.Close(); err != nil {
					t.Fatal(err)
				}
				d, err := Open(r.dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				r.d = d
				if st := d.GetStats(); !m.disableIndex && (st.IndexLoads != 1 || st.IndexFallbacks != 0) {
					t.Errorf("IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
				}
				if n := len(d.objects[r.obj].landmarks); n != 0 {
					t.Errorf("the restart indexed %d landmarks the cleaner had retired", n)
				}
			}
			// Refill until the freed segment is reused and the block is
			// overwritten.
			filler := r.create(alice)
			fill := bytes.Repeat([]byte{0x77}, types.BlockSize)
			raw := make([]byte, seglog.BlockSize)
			for i := 0; ; i++ {
				if err := r.d.log.Read(r.oldAddr, raw); err == nil && !bytes.Equal(raw, r.orig) {
					break
				}
				if i == 64 {
					t.Fatalf("block %d's segment was never reused", r.oldAddr)
				}
				r.write(alice, filler, uint64(i)*types.BlockSize, fill)
			}
			got, err := r.d.Read(admin, r.obj, 0, types.BlockSize, r.at)
			if err != nil || !bytes.Equal(got, r.orig) {
				t.Errorf("block 0 at %v: err=%v, reads %.8q; want %.8q", r.at, err, got, r.orig)
			}
			if err := r.d.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
			}
		})
	}
}

// TestRelocationCrashBeforeBarrier is the other half of the rule: the
// landmark floor is persisted by the same checkpoint that makes the
// relocation durable, not before. A crash between the cleaner pass and
// its barrier recovers the old block address, so it must recover the
// old floor and the landmarks with it — their roots name that address,
// and the deferred-reuse barrier has kept its segment intact.
func TestRelocationCrashBeforeBarrier(t *testing.T) {
	for _, disableIndex := range []bool{false, true} {
		r := newRelocEnv(t)
		floor := r.d.objects[r.obj].lmFloor
		r.relocate()
		if len(r.d.pendingFree) == 0 {
			t.Fatal("the cleaner reached its barrier; the scenario needs the crash before it")
		}
		r.d.opts.DisableSegIndex = disableIndex
		r.reopen() // crash
		o := r.d.objects[r.obj]
		if o.lmFloor != floor || len(o.landmarks) != r.lms {
			t.Errorf("disableIndex=%v: landmark floor %d with %d landmarks, want %d with %d",
				disableIndex, o.lmFloor, len(o.landmarks), floor, r.lms)
		}
		got, err := r.d.Read(admin, r.obj, 0, types.BlockSize, r.at)
		if err != nil || !bytes.Equal(got, r.orig) {
			t.Errorf("disableIndex=%v: block 0 at %v: err=%v, reads %.8q", disableIndex, r.at, err, got)
		}
		if now := o.ino.Block(0); now != r.oldAddr {
			t.Errorf("disableIndex=%v: block 0 recovered at %d, want the checkpointed %d", disableIndex, now, r.oldAddr)
		}
		if err := r.d.CheckInvariants(); err != nil {
			t.Errorf("disableIndex=%v: invariants: %v", disableIndex, err)
		}
	}
}

// TestLandmarkBetweenRelocationAndBarrier is the window the load anchor
// cannot afford. After the cleaner has moved a live block and before
// the barrier checkpoint, the running inode names the copy — and so
// would a landmark image taken then. A crash in that window recovers
// the object map of the last checkpoint, in which the object is
// journal-complete at the old address and its landmarks are live: an
// image naming the copy is then neither the replay of the chain below
// it (CheckInvariants) nor accounted anywhere, so the copy's segment is
// reclaimed under a landmark that history reads, and now loads, anchor
// at. No landmark is emitted in the window. The writes go on through
// it, synced one by one so the checkpoint-time head sector is rewritten
// in place with whatever they emit; then the crash, both recovery
// paths, and the shape of TestTortureRelocation: the oracle, a pressed
// cleaner pass, a refill of what it emptied, the oracle again.
func TestLandmarkBetweenRelocationAndBarrier(t *testing.T) {
	for _, disableIndex := range []bool{false, true} {
		r := newRelocEnv(t)
		every := r.d.opts.CheckpointEvery
		r.relocate()
		if len(r.d.pendingFree) == 0 {
			t.Fatal("the cleaner reached its barrier; the scenario needs the window before it")
		}
		o := r.d.objects[r.obj]
		head, relocated := o.jhead, o.ino.Version
		// Block 1 through the window: three landmark intervals of synced
		// overwrites, each remembered with the instant it became current.
		type version struct {
			at   types.Timestamp
			blk1 []byte
		}
		var oracle []version
		for i := 0; i < 3*every; i++ {
			data := bytes.Repeat([]byte{byte('A' + i)}, types.BlockSize)
			r.write(alice, r.obj, types.BlockSize, data)
			oracle = append(oracle, version{r.d.Now() - 1, data})
			if err := r.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
		_, _, merged, err := journal.ReadSector(r.d.log, head)
		if err != nil || merged[len(merged)-1].Version <= relocated {
			t.Fatalf("the window's entries were not merged into the checkpoint-time head sector (err %v)", err)
		}
		if n := len(o.landmarks); n != 0 {
			t.Fatalf("disableIndex=%v: %d landmarks emitted between the relocation and its barrier", disableIndex, n)
		}
		if len(r.d.pendingFree) == 0 {
			t.Fatal("a barrier checkpoint ran inside the window")
		}
		check := func(when string) {
			t.Helper()
			if err := r.d.CheckInvariants(); err != nil {
				t.Fatalf("disableIndex=%v, %s: %v", disableIndex, when, err)
			}
			got, err := r.d.Read(admin, r.obj, 0, 2*types.BlockSize, types.TimeNowest)
			if err != nil || !bytes.Equal(got[:types.BlockSize], r.orig) || !bytes.Equal(got[types.BlockSize:], oracle[len(oracle)-1].blk1) {
				t.Fatalf("disableIndex=%v, %s: live object reads wrong (err %v)", disableIndex, when, err)
			}
			// Block 0 never changed: below every landmark and at every
			// instant of the window it reads what was written once.
			for _, v := range append([]version{{at: r.at}}, oracle...) {
				got, err := r.d.Read(admin, r.obj, 0, types.BlockSize, v.at)
				if err != nil || !bytes.Equal(got, r.orig) {
					t.Fatalf("disableIndex=%v, %s: block 0 at %v: err=%v, reads %.8q", disableIndex, when, v.at, err, got)
				}
				if v.blk1 == nil {
					continue
				}
				got, err = r.d.Read(admin, r.obj, types.BlockSize, types.BlockSize, v.at)
				if err != nil || !bytes.Equal(got, v.blk1) {
					t.Fatalf("disableIndex=%v, %s: block 1 at %v: err=%v, reads %.8q, want %.8q", disableIndex, when, v.at, err, got, v.blk1)
				}
			}
		}
		r.d.opts.DisableSegIndex = disableIndex
		r.reopen() // crash before the barrier
		if now := r.d.objects[r.obj].ino.Block(0); now != r.oldAddr {
			t.Fatalf("disableIndex=%v: block 0 recovered at %d, want the checkpointed %d", disableIndex, now, r.oldAddr)
		}
		check("after the crash")

		// Fill the device until the cleaner runs pressed, let it compact
		// and release what it can, then write over what it released.
		filler := r.create(alice)
		fill := bytes.Repeat([]byte{0x77}, 32*types.BlockSize)
		off := uint64(0)
		refill := func(until func() bool) {
			for !until() {
				if err := r.d.Write(alice, filler, off, fill); err != nil {
					t.Fatal(err)
				}
				off += uint64(len(fill))
			}
			if err := r.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
		}
		nSeg := r.d.log.NumSegments()
		refill(func() bool { return r.d.log.FreeSegments() < nSeg/5-1 })
		cs, err := r.d.CleanOnce()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.d.Checkpoint(); err != nil { // the barrier: emptied segments rejoin the allocator
			t.Fatal(err)
		}
		t.Logf("disableIndex=%v: pressed pass copied %d blocks, freed %d segments", disableIndex, cs.BlocksCopied, cs.SegmentsFreed)
		check("after the pressed cleaner pass")
		free := r.d.log.FreeSegments()
		refill(func() bool { return r.d.log.FreeSegments() <= free/2 || r.d.log.FreeSegments() <= r.d.spaceReserve+1 })
		check("after the refill")
	}
}
