package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// reopen simulates a crash: the device keeps its durable contents, the
// drive is reconstructed from scratch (checkpoint + roll-forward).
func (e *testEnv) reopen() {
	e.t.Helper()
	opts := e.d.opts
	d, err := Open(e.dev, opts)
	if err != nil {
		e.t.Fatalf("reopen: %v", err)
	}
	e.d = d
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("durable data"))
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	got := e.read(alice, id, 0, 64, types.TimeNowest)
	if string(got) != "durable data" {
		t.Fatalf("after reopen: %q", got)
	}
}

func TestRecoveryAfterCrashWithSync(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("v1 synced"))
	tV1 := e.d.Now()
	e.tick()
	e.write(alice, id, 0, []byte("v2 synced"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: no checkpoint was ever written, so recovery
	// replays the journal from the log alone.
	e.reopen()
	if got := e.read(alice, id, 0, 64, types.TimeNowest); string(got) != "v2 synced" {
		t.Fatalf("current after crash = %q", got)
	}
	if got := e.read(alice, id, 0, 64, tV1); string(got) != "v1 synced" {
		t.Fatalf("history after crash = %q", got)
	}
	// ACL survived (initial ACL is journaled).
	if _, err := e.d.Read(bob, id, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("ACL lost in recovery: %v", err)
	}
}

func TestRecoveryCheckpointPlusRollForward(t *testing.T) {
	e := newTestDrive(t)
	id1 := e.create(alice)
	e.write(alice, id1, 0, []byte("before checkpoint"))
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.tick()
	// Post-checkpoint activity: new object, more writes, a delete.
	id2 := e.create(bob)
	e.write(bob, id2, 0, []byte("after checkpoint"))
	e.write(alice, id1, 0, []byte("updated after cp"))
	victim := e.create(alice)
	e.write(alice, victim, 0, []byte("doomed"))
	if err := e.d.Delete(alice, victim); err != nil {
		t.Fatal(err)
	}
	e.tick()
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	// The overwrite is one byte shorter than the original, so the old
	// final byte survives (writes never shrink an object).
	if got := e.read(alice, id1, 0, 64, types.TimeNowest); string(got) != "updated after cpt" {
		t.Fatalf("id1 = %q", got)
	}
	if got := e.read(bob, id2, 0, 64, types.TimeNowest); string(got) != "after checkpoint" {
		t.Fatalf("id2 = %q", got)
	}
	if _, err := e.d.Read(alice, victim, 0, 1, types.TimeNowest); !errors.Is(err, types.ErrNoObject) {
		t.Fatalf("victim after recovery: %v", err)
	}
	// Fresh creations don't collide with recovered IDs.
	id3 := e.create(alice)
	if id3 == id1 || id3 == id2 || id3 == victim {
		t.Fatal("ObjectID reused after recovery")
	}
}

func TestUnsyncedDataLostButConsistent(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("durable"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.tick()
	e.write(alice, id, 0, []byte("vanishing — never synced"))
	// Crash. The unsynced write disappears; the synced version rules.
	e.reopen()
	got := e.read(alice, id, 0, 64, types.TimeNowest)
	if string(got) != "durable" {
		t.Fatalf("after crash = %q", got)
	}
}

func TestRecoveryPreservesAudit(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("x"))
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	recs, err := e.d.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawWrite bool
	for _, r := range recs {
		if r.Op == types.OpWrite && r.Obj == id {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatalf("audit trail lost across restart (%d records)", len(recs))
	}
	// New records continue with increasing sequence numbers.
	e.tick()
	e.write(alice, id, 0, []byte("y"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	recs2, err := e.d.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) <= len(recs) {
		t.Fatal("no new audit records after restart")
	}
	for i := 1; i < len(recs2); i++ {
		if recs2[i].Seq <= recs2[i-1].Seq {
			t.Fatal("audit seq regressed across restart")
		}
	}
}

func TestRecoveryPreservesPartitionsAndWindow(t *testing.T) {
	e := newTestDrive(t)
	root := e.create(alice)
	if err := e.d.PCreate(alice, "export", root); err != nil {
		t.Fatal(err)
	}
	if err := e.d.SetWindow(admin, 42*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if got := e.d.Window(); got != 42*time.Minute {
		t.Fatalf("window after reopen = %v", got)
	}
	id, err := e.d.PMount(alice, "export", types.TimeNowest)
	if err != nil || id != root {
		t.Fatalf("pmount after reopen: %v %v", id, err)
	}
}

func TestPropertyRecoveryPreservesHistory(t *testing.T) {
	// Random workload; sync at random points; crash; every snapshot
	// taken at or before the last sync must still verify.
	for seed := int64(10); seed < 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := newTestDrive(t)
			rnd := rand.New(rand.NewSource(seed))
			id := e.create(alice)
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			e.tick()
			var model, attr []byte
			var snaps []snapshot
			var lastSync int // index into snaps covered by a sync
			for i := 0; i < 40; i++ {
				applyRandomOp(e, rnd, id, &model, &attr)
				snaps = append(snaps, takeSnapshot(e, id, model, attr, false))
				e.tick()
				if rnd.Intn(4) == 0 {
					if err := e.d.Sync(alice); err != nil {
						t.Fatal(err)
					}
					lastSync = len(snaps)
				}
				if rnd.Intn(10) == 0 {
					if err := e.d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					lastSync = len(snaps)
				}
			}
			e.reopen()
			for _, s := range snaps[:lastSync] {
				verifySnapshot(t, e, id, s)
			}
		})
	}
}

func TestRecoveryDoubleCrash(t *testing.T) {
	// Crash, recover, write more, crash again: recovery must be
	// idempotent and stable.
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("gen1"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	e.tick()
	e.write(alice, id, 0, []byte("gen2"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if got := e.read(alice, id, 0, 16, types.TimeNowest); string(got) != "gen2" {
		t.Fatalf("after double crash = %q", got)
	}
}

func TestRecoveryLargeObjectWithOverflowCheckpoint(t *testing.T) {
	clk := vclock.NewVirtual()
	dev := disk.New(disk.SmallDisk(128<<20), clk)
	opts := Options{
		Clock: clk, SegBlocks: 64, CheckpointBlocks: 64,
		Window: time.Hour, BlockCacheBytes: 1 << 20, ObjectCacheCount: 64,
	}
	d, err := Format(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, dev: dev, clk: clk}
	id := e.create(alice)
	data := bytes.Repeat([]byte{0x5A}, 900*types.BlockSize) // needs overflow map blocks
	for off := 0; off < len(data); off += types.MaxIO {
		end := off + types.MaxIO
		if end > len(data) {
			end = len(data)
		}
		e.write(alice, id, uint64(off), data[off:end])
	}
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	for off := 0; off < len(data); off += types.MaxIO {
		end := off + types.MaxIO
		if end > len(data) {
			end = len(data)
		}
		got := e.read(alice, id, uint64(off), uint64(end-off), types.TimeNowest)
		if !bytes.Equal(got, data[off:end]) {
			t.Fatalf("chunk at %d corrupted after recovery", off)
		}
	}
	_ = e.d.Close()
}

// TestRestartDoesNotDoubleAge pins the one-owner rule for the history
// pool: history that left the window while the drive was down is still
// history after Open (recovery never reads the clock), and the first
// cleaner pass releases it exactly once. A recovery that ages by the
// clock without raising the floor lets that pass release the same
// blocks again: HistoryBlocks goes 9 -> 0 -> -9, and the negative
// counter can never re-enter the segment index.
func TestRestartDoesNotDoubleAge(t *testing.T) {
	modes := []struct {
		name         string
		checkpoint   bool
		disableIndex bool
	}{
		{"indexed", true, false},
		{"full-scan", true, true},
		{"no-checkpoint", false, false},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			e := newTestDrive(t)
			id := e.create(alice)
			for i := 0; i < 10; i++ {
				e.write(alice, id, 0, bytes.Repeat([]byte{byte('a' + i)}, types.BlockSize))
			}
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			if m.checkpoint {
				if err := e.d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if got := e.d.Status().HistoryBlocks; got != 9 {
				t.Fatalf("before the restart HistoryBlocks = %d, want 9", got)
			}
			e.clk.Advance(2 * time.Hour) // window is 1h: all nine aged while down
			e.d.opts.DisableSegIndex = m.disableIndex
			e.reopen()
			if got := e.d.Status().HistoryBlocks; got != 9 {
				t.Errorf("after Open HistoryBlocks = %d, want 9 (only the cleaner ages)", got)
			}
			if _, err := e.d.CleanOnce(); err != nil {
				t.Fatal(err)
			}
			if got := e.d.Status().HistoryBlocks; got != 0 {
				t.Errorf("after Open + CleanOnce HistoryBlocks = %d, want 0", got)
			}
			// CheckInvariants audits the usage table: no counter negative.
			if err := e.d.CheckInvariants(); err != nil {
				t.Errorf("after Open + CleanOnce: %v", err)
			}
			// The cleaned state must be able to re-enter the index.
			if err := e.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			e.d.opts.DisableSegIndex = false
			e.reopen()
			if st := e.d.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
				t.Errorf("reopen after the cleaned checkpoint: IndexLoads=%d IndexFallbacks=%d, want 1/0",
					st.IndexLoads, st.IndexFallbacks)
			}
			if got := e.read(alice, id, 0, 1, types.TimeNowest); got[0] != 'j' {
				t.Errorf("current version reads %q, want 'j'", got)
			}
		})
	}
}

// TestInWindowHistorySurvivesRestartAndReuse is the data-loss end of
// the same defect. Segment 0 holds nine versions of A's block 0 and
// all seven blocks of F. Eight of A's versions age out across a
// restart; if recovery and the first cleaner pass both release them the
// segment sits at hist = -8, absorbs the eight genuinely in-window
// history blocks the next overwrites of A and F create while reading
// live 0 / hist 0, is reclaimed and reused — and a history read inside
// the window returns another object's bytes.
func TestInWindowHistorySurvivesRestartAndReuse(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.SegBlocks = 17 })
	a, f, other := e.create(alice), e.create(alice), e.create(alice)
	var aData []byte
	for i := 0; i < 9; i++ {
		aData = bytes.Repeat([]byte{byte('A' + i)}, types.BlockSize)
		e.write(alice, a, 0, aData)
	}
	fData := bytes.Repeat([]byte("F-object "), 7*types.BlockSize/9+1)[:7*types.BlockSize]
	e.write(alice, f, 0, fData)
	e.write(alice, other, 0, []byte("third object"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(2 * time.Hour)
	e.reopen()
	if _, err := e.d.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	e.tick()
	before := e.d.Now() // A and F as written above are in-window history from here on
	e.tick()
	e.write(alice, a, 0, bytes.Repeat([]byte{'z'}, types.BlockSize))
	e.write(alice, f, 0, bytes.Repeat([]byte{'y'}, 7*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Cycle the log so any segment wrongly believed empty is reused.
	filler := e.create(alice)
	for i := 0; i < 400; i++ {
		e.write(alice, filler, 0, bytes.Repeat([]byte{byte(i)}, 32<<10))
		if (i+1)%20 == 0 {
			if _, err := e.d.CleanOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Errorf("invariants after reuse: %v", err)
	}
	if got, err := e.d.Read(alice, a, 0, types.BlockSize, before); err != nil || !bytes.Equal(got, aData) {
		t.Errorf("A at %v: err=%v, %d bytes starting %.8q; want the in-window version %.8q",
			before, err, len(got), got, aData)
	}
	if got, err := e.d.Read(alice, f, 0, uint64(len(fData)), before); err != nil || !bytes.Equal(got, fData) {
		t.Errorf("F at %v: err=%v, %d bytes starting %.8q; want the in-window version %.8q",
			before, err, len(got), got, fData)
	}
}

// crashCopy copies what e's device holds into a fresh device: the image
// a crash leaves when e's drive is abandoned without Close. Only the
// chunks holding data are written, so the copy stays sparse.
func crashCopy(t *testing.T, e *testEnv) *disk.Disk {
	t.Helper()
	geo := e.dev.Geometry()
	img := disk.New(geo, nil)
	buf, zero := make([]byte, 64<<10), make([]byte, 64<<10)
	for s := int64(0); s < geo.NumSectors; s += int64(len(buf)) / disk.SectorSize {
		b := buf[:min(int64(len(buf)), (geo.NumSectors-s)*disk.SectorSize)]
		if err := e.dev.ReadSectors(s, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, zero[:len(b)]) {
			if err := img.WriteSectors(s, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return img
}

// TestDeleteReviveAcrossCrash puts the checkpoint after an object's
// delete and before its Revert, after both (with a second delete in the
// tail), and before both, then opens each crash image anchored at the
// segment index and with DisableSegIndex. A delete moves the final
// version's blocks into the history pool and a revive moves them back,
// so each open must account the object's blocks from the state the
// checkpoint saw. Both opens recover the same digest, hold every
// invariant, read back the live version and every version before it,
// and count the history pool as a recount of the log does.
func TestDeleteReviveAcrossCrash(t *testing.T) {
	rows := []struct {
		name string
		// d deletes, r reverts to the newest live version, w overwrites
		// block 1, c checkpoints.
		ops string
	}{
		{"delete-checkpoint-revert", "dcrw"},
		{"delete-revert-checkpoint-delete", "drwcd"},
		{"checkpoint-delete-revert", "cdrw"},
	}
	const span = 2 * types.BlockSize
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newTestDrive(t)
			id := e.create(alice)
			type snap struct {
				at   types.Timestamp
				data []byte
			}
			var snaps []snap
			cur := bytes.Repeat([]byte{'a'}, span)
			write := func(off uint64, b byte) {
				cur = append([]byte(nil), cur...)
				copy(cur[off:off+types.BlockSize], bytes.Repeat([]byte{b}, types.BlockSize))
				snaps = append(snaps, snap{e.d.Now(), cur})
				e.write(alice, id, off, cur[off:off+types.BlockSize])
			}
			snaps = append(snaps, snap{e.d.Now(), cur})
			e.write(alice, id, 0, cur)
			write(0, 'b')
			deleted := false
			for i, op := range row.ops {
				switch op {
				case 'd':
					if err := e.d.Delete(alice, id); err != nil {
						t.Fatal(err)
					}
					deleted = true
				case 'r':
					if err := e.d.Revert(admin, id, snaps[len(snaps)-1].at); err != nil {
						t.Fatal(err)
					}
					deleted = false
				case 'w':
					write(types.BlockSize, byte('c'+i))
				case 'c':
					if err := e.d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				e.tick()
			}
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}

			open := func(fullScan bool) *testEnv {
				opts := e.d.opts
				clk := vclock.NewVirtualAt(e.d.Now().Time())
				opts.Clock, opts.DisableSegIndex = clk, fullScan
				img := crashCopy(t, e)
				d, err := Open(img, opts)
				if err != nil {
					t.Fatalf("open (full scan %v): %v", fullScan, err)
				}
				return &testEnv{t: t, d: d, dev: img, clk: clk}
			}
			idx, full := open(false), open(true)
			if st := idx.d.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
				t.Errorf("indexed open: IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
			}
			if a, b := idx.d.StateDigest(), full.d.StateDigest(); a != b {
				t.Fatalf("indexed and full-scan recovery diverged:\nindexed:\n%s\nfull:\n%s", a, b)
			}
			for _, r := range []*testEnv{idx, full} {
				if err := r.d.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				ai, err := r.d.GetAttr(admin, id, types.TimeNowest)
				if err != nil || ai.Deleted != deleted {
					t.Fatalf("recovered object: deleted=%v (%v), want %v", ai.Deleted, err, deleted)
				}
				if !deleted {
					if got := r.read(admin, id, 0, span, types.TimeNowest); !bytes.Equal(got, cur) {
						t.Fatalf("live version reads %.1q…, want %.1q…", got[types.BlockSize:], cur[types.BlockSize:])
					}
				}
				for _, s := range snaps {
					if got := r.read(admin, id, 0, span, s.at); !bytes.Equal(got, s.data) {
						t.Fatalf("version at %v reads %.1q/%.1q, want %.1q/%.1q",
							s.at, got, got[types.BlockSize:], s.data, s.data[types.BlockSize:])
					}
				}
				r.d.opts.DisableSegIndex = true
				historyRecount(r)
			}
		})
	}
}
