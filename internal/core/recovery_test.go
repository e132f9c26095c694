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
			if st := e.d.DriveStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
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
