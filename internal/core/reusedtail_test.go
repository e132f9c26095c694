package core

import (
	"bytes"
	"fmt"
	"regexp"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// staleJournalSlots returns the most device sectors that one journal
// block of d's open segment holds past its Len, rounded up to a sector,
// that decode as journal sectors: an earlier life's, left there because
// a flush run ends at its last block's Len.
func staleJournalSlots(t *testing.T, d *Drive, dev disk.Device) int {
	t.Helper()
	seg := d.log.CurrentSegment()
	if seg < 0 {
		return 0
	}
	sum, ok, err := d.log.ReadSummary(seg)
	if err != nil || !ok {
		t.Fatalf("open segment %d: summary ok=%v %v", seg, ok, err)
	}
	most := 0
	sec := make([]byte, journal.SectorSize)
	for i, e := range sum.Entries {
		if e.Kind != seglog.KindJournal {
			continue
		}
		n := 0
		for s := (int(e.Len) + journal.SectorSize - 1) / journal.SectorSize; s < journal.SectorsPerBlock; s++ {
			if err := dev.ReadSectors(int64(d.log.EntryAt(seg, i))*journal.SectorsPerBlock+int64(s), sec); err != nil {
				t.Fatal(err)
			}
			if _, _, _, ok, err := journal.DecodeSector(sec); ok && err == nil {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// TestReusedJournalTailNotReplayed runs a drive whose cleaner reuses
// segments until a sync leaves a fresh journal block, in the open
// segment, over an earlier life's journal block that still holds at
// least two valid journal sectors past the new block's Len. It crashes
// there and opens the image on both recovery bases: each recovers the
// drive's state at that sync, passes CheckInvariants and reads back every
// object's acknowledged bytes. Objects are deleted and created as it
// runs, so the stale sectors name objects the drive no longer holds:
// were they decoded, recovery would bring those back, with chains that
// do not reach their creation.
func TestReusedJournalTailNotReplayed(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(8<<20), nil)
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Minute, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
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
	cur := make([][]byte, len(ids))
	rec.StartRecording()
	found, step := false, 0
	for ; step < 4000 && !found; step++ {
		i := step % len(ids)
		if step%(5*len(ids)) == i && step >= len(ids) {
			// Objects come and go, so an earlier life's journal sectors
			// name objects the drive no longer holds: decoded, they would
			// bring them back.
			if err := d.Delete(alice, ids[i]); err != nil {
				t.Fatal(err)
			}
			ids[i] = e.create(alice)
		}
		cur[i] = bytes.Repeat([]byte(fmt.Sprintf("obj %d step %d|", i, step)), 8)
		e.write(alice, ids[i], 0, cur[i])
		if err := d.Sync(alice); err != nil {
			t.Fatal(err)
		}
		found = staleJournalSlots(t, d, rec) >= 2
		clk.Advance(5 * time.Second)
		if step%16 == 15 && !found {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.CleanOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !found {
		t.Fatal("no sync left a journal block over an earlier life's journal sectors")
	}
	t.Logf("crash after sync %d: %d earlier-life journal sectors past a fresh block's Len", step, staleJournalSlots(t, d, rec))
	// An audit record is durable once its block fills or a checkpoint
	// writes it, not at a sync, so the crash may lose the newest few.
	unaudited := regexp.MustCompile(` auditSeq=\d+`)
	want := unaudited.ReplaceAllString(d.StateDigest(), "")
	var digests [2]string
	for b, disableIndex := range []bool{false, true} {
		o := opts
		o.Clock = vclock.NewVirtualAt(d.Now().Time())
		o.DisableSegIndex = disableIndex
		img, err := rec.ImageAt(rec.Writes())
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(img, o)
		if err != nil {
			t.Fatalf("index off=%v: %v", disableIndex, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("index off=%v: %v", disableIndex, err)
		}
		digests[b] = unaudited.ReplaceAllString(r.StateDigest(), "") // before the reads below audit anything
		re := &testEnv{t: t, d: r, clk: clk}
		for i, id := range ids {
			if got := re.read(alice, id, 0, uint64(len(cur[i])), types.TimeNowest); !bytes.Equal(got, cur[i]) {
				t.Fatalf("index off=%v: object %d reads %q, want %q", disableIndex, i, got, cur[i])
			}
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("the two recovery bases disagree:\n%s\n--\n%s", digests[0], digests[1])
	}
	if digests[0] != want {
		t.Fatalf("recovered state differs from the drive's at the crash:\n%s\n--\n%s", digests[0], want)
	}
}
