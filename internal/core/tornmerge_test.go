package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/types"
	"s4/internal/vclock"
)

// TestTornHeadMergeKeepsAckedEntries crashes a drive whose objects
// share journal blocks at every write and at every torn prefix of it.
// Each round writes and syncs each object in turn, so every sync packs
// one more 512-byte sector into a shared journal block and its flush's
// first run starts in the middle of that block (DESIGN.md §11.3). Every
// image is opened on both recovery bases: the two must recover the same
// state, every version a Sync acknowledged before the crash must read
// back at its time, the live version must be the newest acknowledged
// one or the one whose Sync was in flight, and CheckInvariants must
// hold. A torn write may carry all of an in-flight version: a
// snapshot torn after its last header-and-entries sector is whole. A
// snapshot writes only those sectors (DESIGN.md §15.1), so no tear of
// one here is. No version written after the crash may appear.
// The torture sweep tears a write at half its length only, and never a
// one-sector write.
func TestTornHeadMergeKeepsAckedEntries(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(16<<20), nil)
	opts := Options{
		Clock: clk, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
	}
	d, err := Format(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, clk: clk}
	ids := make([]types.ObjectID, 4)
	for i := range ids {
		ids[i] = e.create(alice)
	}
	if err := d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	type version struct {
		obj  int
		at   types.Timestamp
		data []byte
		// Device writes when its Write was issued and when its Sync
		// returned: the version is in flight at the writes in between.
		issued, acked int
	}
	var vs []version
	rec.StartRecording()
	for r := 0; r < 6; r++ {
		for i, id := range ids {
			data := bytes.Repeat([]byte(fmt.Sprintf("obj %d round %d|", i, r)), 20)
			at, issued := d.Now(), rec.Writes()
			e.write(alice, id, 0, data)
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			vs = append(vs, version{obj: i, at: at, data: data, issued: issued, acked: rec.Writes()})
		}
	}
	end := d.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// verify opens the image after write k (torn to keep sectors when
	// keep > 0) on both bases and checks it.
	landed := 0 // opens that recovered an in-flight version
	verify := func(k, keep int) {
		t.Helper()
		where := fmt.Sprintf("crash@%d", k)
		if keep > 0 {
			where = fmt.Sprintf("crash@%d torn to %d sectors", k, keep)
		}
		var drvs [2]*Drive
		var digests [2]string
		for b := range drvs {
			img, err := rec.ImageAt(k)
			if keep > 0 {
				img, err = rec.TornImageAt(k, keep)
			}
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Clock, o.DisableSegIndex = vclock.NewVirtualAt(end.Time()), b == 1
			if drvs[b], err = Open(img, o); err != nil {
				t.Fatalf("%s: open (empty base %v): %v", where, b == 1, err)
			}
			digests[b] = drvs[b].StateDigest()
		}
		if digests[0] != digests[1] {
			t.Fatalf("%s: indexed and full-scan recovery diverged:\nindexed:\n%s\nfull:\n%s", where, digests[0], digests[1])
		}
		for _, drv := range drvs {
			if err := drv.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			newest, inFlight := make([]*version, len(ids)), make([]*version, len(ids))
			for i := range vs {
				v := &vs[i]
				if v.acked > k {
					if v.issued <= k {
						inFlight[v.obj] = v
					}
					continue
				}
				newest[v.obj] = v
				got, err := drv.Read(admin, ids[v.obj], 0, uint64(len(v.data)), v.at)
				if err != nil || !bytes.Equal(got, v.data) {
					t.Fatalf("%s: version of object %d acked at write %d reads %.20q (%v), want %.20q", where, v.obj, v.acked, got, err, v.data)
				}
			}
			for i, id := range ids {
				got, err := drv.Read(admin, id, 0, uint64(len(vs[0].data)), types.TimeNowest)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if v := inFlight[i]; v != nil && bytes.Equal(got, v.data) {
					landed++
					continue
				}
				if want := newest[i]; want == nil && len(got) != 0 || want != nil && !bytes.Equal(got, want.data) {
					t.Fatalf("%s: object %d's live version reads %.20q, want the newest acked", where, i, got)
				}
			}
			if err := drv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	writes, torn := rec.Writes(), 0
	for k := 0; k <= writes; k++ {
		verify(k, 0)
		if k == writes {
			break
		}
		for keep := 1; keep < rec.Record(k).Sectors(); keep++ {
			verify(k, keep)
			torn++
		}
	}
	t.Logf("%d device writes, %d torn images, each opened on both bases; %d opens recovered an in-flight version",
		writes, torn, landed)
}

// TestFlushedEntriesLeavePending drives one object's journal through a
// fresh-sector flush, a head merge while its block is still in the open
// segment, and the flush of an eviction. After each, the head sector
// read back from the log must hold every entry flushed into it, in
// order, and no slot of o.pending's backing array past its length may
// still hold an entry: the sector is the one record of a flushed entry,
// so nothing in memory, evicted objects included, keeps it reachable.
func TestFlushedEntriesLeavePending(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.ObjectCacheCount = 1 })
	a := e.create(alice)
	o := e.d.objects[a]
	type ent struct {
		typ journal.EntryType
		ver uint64
	}
	var inHead []ent // what the head sector should hold, oldest first
	// flush runs op, which must flush every pending entry of o, and
	// checks the head sector and o.pending afterwards.
	flush := func(step string, wantMerge bool, op func()) {
		t.Helper()
		var flushed []ent
		for _, p := range o.pending {
			flushed = append(flushed, ent{p.Type, p.Version})
		}
		if len(flushed) == 0 {
			t.Fatalf("%s: nothing pending", step)
		}
		head := o.jhead
		if wantMerge && !e.d.log.InOpenSegment(head.Block()) {
			t.Fatalf("%s: the head sector left the open segment; the merge path would not run", step)
		}
		op()
		if merged := o.jhead == head; merged != wantMerge {
			t.Fatalf("%s: merged into the head %v, want %v", step, merged, wantMerge)
		}
		if !wantMerge {
			inHead = nil
		}
		inHead = append(inHead, flushed...)
		if len(o.pending) != 0 {
			t.Fatalf("%s: %d entries still pending", step, len(o.pending))
		}
		for i, p := range o.pending[:cap(o.pending)] {
			if p != nil {
				t.Errorf("%s: o.pending's backing array still holds flushed entry v%d at slot %d", step, p.Version, i)
			}
		}
		owner, _, got, err := journal.ReadSector(e.d.log, o.jhead)
		if err != nil || owner != a {
			t.Fatalf("%s: head sector: owner %v, err %v", step, owner, err)
		}
		var have []ent
		for _, g := range got {
			have = append(have, ent{g.Type, g.Version})
		}
		if fmt.Sprint(have) != fmt.Sprint(inHead) {
			t.Errorf("%s: head sector holds %v, want %v", step, have, inHead)
		}
	}
	sync := func() {
		if err := e.d.Sync(alice); err != nil {
			t.Fatal(err)
		}
	}

	if err := e.d.SetAttr(alice, a, []byte("attr")); err != nil {
		t.Fatal(err)
	}
	e.write(alice, a, 0, []byte("first"))
	flush("fresh sector", false, sync)
	e.write(alice, a, 0, []byte("second"))
	flush("head merge", true, sync)
	e.write(alice, a, 0, []byte("third"))
	flush("eviction", true, func() { e.create(alice) })
	if o.ino != nil {
		t.Fatal("creating a second object did not evict the first")
	}
}
