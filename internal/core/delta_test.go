package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"s4/internal/delta"
	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/types"
)

// Delta-compressed history and retention policies (DESIGN.md §16).

// deltaOn enables delta conversion drive-wide (key 0 = drive default).
func deltaOn(e *testEnv) {
	e.t.Helper()
	if err := e.d.SetPolicy(admin, 0, types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true}); err != nil {
		e.t.Fatal(err)
	}
}

// blockPattern builds one full block whose tail varies with v; most of
// the block is shared across versions so reverse deltas stay small.
func blockPattern(v int) []byte {
	b := make([]byte, types.BlockSize)
	for i := range b {
		b[i] = byte(i)
	}
	copy(b[types.BlockSize-32:], []byte(fmt.Sprintf("version-%08d", v)))
	return b
}

// spanPattern is blockPattern across n blocks: conversion packs several
// outgoing blocks of one entry into a shared delta block, so it only
// fires for multi-block overwrites (packing one block saves nothing).
func spanPattern(v, n int) []byte {
	b := make([]byte, 0, n*types.BlockSize)
	for i := 0; i < n; i++ {
		b = append(b, blockPattern(v*100+i)...)
	}
	return b
}

func TestDeltaHistoryRoundTrip(t *testing.T) {
	e := newTestDrive(t)
	deltaOn(e)
	id := e.create(alice)

	const versions, span = 12, 4
	times := make([]types.Timestamp, versions)
	for v := 0; v < versions; v++ {
		e.write(alice, id, 0, spanPattern(v, span))
		times[v] = e.d.Now()
		e.tick()
	}
	st := e.d.GetStats()
	if st.DeltaBlocksWritten == 0 {
		t.Fatal("no packed delta blocks written despite DeltaEnabled")
	}
	if st.DeltaBytesSaved <= 0 {
		t.Fatalf("DeltaBytesSaved = %d, want > 0", st.DeltaBytesSaved)
	}
	// Every historical version must materialize exactly, via however
	// long a delta chain reconstruction needs.
	for v := 0; v < versions; v++ {
		got := e.read(alice, id, 0, span*types.BlockSize, times[v])
		if !bytes.Equal(got, spanPattern(v, span)) {
			t.Fatalf("version %d did not round-trip through delta history", v)
		}
	}
}

// churn overwrites 4 objects' 8-block spans for `rounds` rounds of
// small diffs, then reads 200 versions from the oldest tenth back
// through a 64KB block cache, checking every byte. It returns the
// history pool's size in blocks and the device reads each block of a
// deep read cost.
func churn(t *testing.T, rounds int, delta bool) (histBlocks int64, deepReadsPerBlock float64) {
	t.Helper()
	e := newTestDrive(t, smallBlockCache)
	if delta {
		deltaOn(e)
	}
	const objects, span, deepReads = 4, 8, 200
	ids := make([]types.ObjectID, objects)
	for o := range ids {
		ids[o] = e.create(alice)
	}
	times := make([]types.Timestamp, rounds)
	for v := 0; v < rounds; v++ {
		for _, id := range ids {
			if err := e.d.Write(alice, id, 0, spanPattern(v, span)); err != nil {
				t.Fatal(err)
			}
		}
		times[v] = e.d.Now()
		e.tick()
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	histBlocks = e.d.GetStats().HistoryBlocks
	rng := rand.New(rand.NewSource(1))
	s0 := e.d.GetStats()
	for i := 0; i < deepReads; i++ {
		v := rng.Intn(rounds / 10)
		got := e.read(alice, ids[i%objects], 0, span*types.BlockSize, times[v])
		if !bytes.Equal(got, spanPattern(v, span)) {
			t.Fatalf("delta=%v: version %d did not read back", delta, v)
		}
	}
	devReads := e.d.GetStats().DeviceReads - s0.DeviceReads
	return histBlocks, float64(devReads) / (deepReads * span)
}

// TestDeltaChurnPoolAndDeepReads holds the two counts delta history is
// for and must not cost (DESIGN.md §16): on small-diff churn the
// history pool is at most half of what full old blocks take (4.2x
// smaller when measured), and materializing old versions through delta
// chains stays as cheap in device reads per block as the plain landmark
// walk of TestDeepHistoryReadCost was when the two were compared as a
// ratio. They are held to one ceiling each, at what they measured
// before journal sectors went through the block cache (1.63 and 1.61;
// 1.47 and 0.86 since): that change made both cheaper and the plain
// path more so, which a ratio reads as a regression.
func TestDeltaChurnPoolAndDeepReads(t *testing.T) {
	const rounds = 300
	off, _ := churn(t, rounds, false)
	on, perBlock := churn(t, rounds, true)
	t.Logf("history pool: %d blocks full, %d blocks delta (%.2fx)", off, on, float64(off)/float64(on))
	if 2*on > off {
		t.Errorf("delta history pool is %d blocks against %d full: less than a 2x reduction", on, off)
	}
	plain, _ := deepReadCost(newTestDrive(t, smallBlockCache), 1000, 40)
	plain /= 2 // deepReadCost reads 2-block objects
	t.Logf("deep read: %.2f device reads per block through delta chains, %.2f plain", perBlock, plain)
	if perBlock > 1.6 {
		t.Errorf("a deep read through delta chains costs %.2f device reads per block, want at most 1.6", perBlock)
	}
	if plain > 1.0 {
		t.Errorf("a deep read on the plain path costs %.2f device reads per block, want at most 1.0", plain)
	}
}

func TestDeltaChainKeyframe(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.MaxDeltaChain = 4 })
	deltaOn(e)
	id := e.create(alice)
	const versions, span = 11, 4 // several keyframes at chain bound 4
	times := make([]types.Timestamp, versions)
	for v := 0; v < versions; v++ {
		e.write(alice, id, 0, spanPattern(v, span))
		times[v] = e.d.Now()
		e.tick()
	}
	st := e.d.GetStats()
	if st.ChainKeyframes == 0 {
		t.Fatal("no keyframes forced at the MaxDeltaChain bound")
	}
	for v := 0; v < versions; v++ {
		got := e.read(alice, id, 0, span*types.BlockSize, times[v])
		if !bytes.Equal(got, spanPattern(v, span)) {
			t.Fatalf("version %d wrong after keyframe splits", v)
		}
	}
}

func TestDeltaCrashRecovery(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			e := newTestDrive(t, func(o *Options) { o.DisableSegIndex = !indexed })
			deltaOn(e)
			id := e.create(alice)
			const versions, span = 8, 4
			times := make([]types.Timestamp, versions)
			for v := 0; v < versions; v++ {
				e.write(alice, id, 0, spanPattern(v, span))
				times[v] = e.d.Now()
				e.tick()
			}
			if indexed {
				if err := e.d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// A post-checkpoint tail with conversions exercises the
				// indexed settlement rules.
				e.write(alice, id, 0, spanPattern(versions, span))
				e.tick()
			}
			if err := e.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			if st := e.d.GetStats(); st.DeltaBlocksWritten == 0 {
				t.Fatal("recovery scenario wrote no packed delta blocks")
			}
			e.reopen()
			if err := e.d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < versions; v++ {
				got := e.read(alice, id, 0, span*types.BlockSize, times[v])
				if !bytes.Equal(got, spanPattern(v, span)) {
					t.Fatalf("version %d wrong after crash recovery", v)
				}
			}
		})
	}
}

func TestPolicyRetentionSkip(t *testing.T) {
	for _, mode := range []types.PolicyMode{types.ModeLandmarkOnly, types.ModeOnClose} {
		t.Run(mode.String(), func(t *testing.T) {
			// Landmarks far apart so retention decisions are the policy's.
			e := newTestDrive(t, func(o *Options) { o.CheckpointEvery = 1 << 20 })
			id := e.create(alice)
			if err := e.d.SetPolicy(admin, id, types.Policy{Mode: mode}); err != nil {
				t.Fatal(err)
			}
			e.write(alice, id, 0, blockPattern(1))
			t1 := e.d.Now()
			e.tick()
			e.write(alice, id, 0, blockPattern(2))
			t2 := e.d.Now()
			e.tick()
			if mode == types.ModeOnClose {
				// The sync is the "close": version 2 becomes retained.
				if err := e.d.Sync(alice); err != nil {
					t.Fatal(err)
				}
			}
			e.write(alice, id, 0, blockPattern(3))
			t3 := e.d.Now()
			e.tick()

			// Version 2's fate differs by mode; version 3 is current and
			// always readable.
			if got := e.read(alice, id, 0, types.BlockSize, t3); !bytes.Equal(got, blockPattern(3)) {
				t.Fatal("current version wrong under retention policy")
			}
			_, err2 := e.d.Read(alice, id, 0, types.BlockSize, t2)
			if mode == types.ModeOnClose {
				if err2 != nil {
					t.Fatalf("synced version dropped under on-close: %v", err2)
				}
			} else if !errors.Is(err2, types.ErrNoVersion) {
				t.Fatalf("unretained version: got err %v, want ErrNoVersion", err2)
			}
			// Version 1 was overwritten before any close under on-close,
			// and is below the last retained landmark under landmark-only:
			// both modes drop it.
			if _, err := e.d.Read(alice, id, 0, types.BlockSize, t1); !errors.Is(err, types.ErrNoVersion) {
				t.Fatalf("unretained version 1: got err %v, want ErrNoVersion", err)
			}
			if st := e.d.GetStats(); st.PolicySkippedVersions == 0 {
				t.Fatal("PolicySkippedVersions did not count the drops")
			}
			if err := e.d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPolicySkipSurvivesFlushAndCrash(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.CheckpointEvery = 1 << 20 })
	id := e.create(alice)
	if err := e.d.SetPolicy(admin, id, types.Policy{Mode: types.ModeLandmarkOnly, DeltaEnabled: true}); err != nil {
		t.Fatal(err)
	}
	const versions, span = 6, 4
	times := make([]types.Timestamp, versions)
	for v := 0; v < versions; v++ {
		e.write(alice, id, 0, spanPattern(v, span))
		times[v] = e.d.Now()
		e.tick()
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Current version intact; every dropped version reads as a typed
	// miss, never as fabricated bytes.
	if got := e.read(alice, id, 0, span*types.BlockSize, types.TimeNowest); !bytes.Equal(got, spanPattern(versions-1, span)) {
		t.Fatal("current version wrong after crash with retention skips")
	}
	for v := 0; v < versions-1; v++ {
		got, err := e.d.Read(alice, id, 0, span*types.BlockSize, times[v])
		if err == nil {
			// Retention decisions are made at overwrite time; a version
			// that survived (e.g. the first, anchored by create) must be
			// exact.
			if !bytes.Equal(got, spanPattern(v, span)) {
				t.Fatalf("version %d returned wrong bytes after crash", v)
			}
			continue
		}
		if !errors.Is(err, types.ErrNoVersion) {
			t.Fatalf("version %d: err %v, want ErrNoVersion or exact data", v, err)
		}
	}
}

func TestPolicyPersistsAcrossReopen(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	want := types.Policy{Window: 10 * time.Minute, Mode: types.ModeLandmarkOnly, DeltaEnabled: true}
	if err := e.d.SetPolicy(admin, id, want); err != nil {
		t.Fatal(err)
	}
	def := types.Policy{Mode: types.ModeOnClose}
	if err := e.d.SetPolicy(admin, 0, def); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	got, own, err := e.d.GetPolicy(admin, id)
	if err != nil || !own || got != want {
		t.Fatalf("object policy after reopen: %+v own=%v err=%v", got, own, err)
	}
	if got, _, err := e.d.GetPolicy(admin, 0); err != nil || got != def {
		t.Fatalf("drive default after reopen: %+v err=%v", got, err)
	}
	// Another object inherits the drive default.
	id2 := e.create(bob)
	if got, own, err := e.d.GetPolicy(admin, id2); err != nil || own || got != def {
		t.Fatalf("inherited policy: %+v own=%v err=%v", got, own, err)
	}
	// Clearing an entry falls back to the default.
	if err := e.d.SetPolicy(admin, id, types.Policy{}); err != nil {
		t.Fatal(err)
	}
	if got, own, _ := e.d.GetPolicy(admin, id); own || got != def {
		t.Fatalf("cleared policy: %+v own=%v", got, own)
	}
}

func TestSetPolicyValidation(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	if err := e.d.SetPolicy(alice, id, types.Policy{}); !errors.Is(err, types.ErrAdminOnly) {
		t.Fatalf("non-admin SetPolicy: %v", err)
	}
	if err := e.d.SetPolicy(admin, id, types.Policy{Mode: 99}); !errors.Is(err, types.ErrInval) {
		t.Fatalf("bad mode: %v", err)
	}
	if err := e.d.SetPolicy(admin, id, types.Policy{Window: -time.Second}); !errors.Is(err, types.ErrInval) {
		t.Fatalf("negative window: %v", err)
	}
	if err := e.d.SetPolicy(admin, types.PolicyTable, types.Policy{Mode: types.ModeOnClose}); !errors.Is(err, types.ErrInval) {
		t.Fatalf("reserved object policy: %v", err)
	}
}

func TestPolicyWindowOverride(t *testing.T) {
	// Two objects; one under a much shorter retention window. After the
	// short window lapses, its history ages while the default object's
	// survives — per-object cuts in both the cleaner and recovery.
	e := newTestDrive(t)
	short := e.create(alice)
	long := e.create(alice)
	if err := e.d.SetPolicy(admin, short, types.Policy{Window: time.Minute, Mode: types.ModeEveryVersion}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.ObjectID{short, long} {
		e.write(alice, id, 0, blockPattern(1))
	}
	tOld := e.d.Now()
	e.tick()
	for _, id := range []types.ObjectID{short, long} {
		e.write(alice, id, 0, blockPattern(2))
	}
	// Aging walks flushed chains, not pending tails.
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	// Pass the minute window but stay inside the hour drive window.
	e.clk.Advance(5 * time.Minute)
	if _, err := e.d.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.Read(alice, short, 0, types.BlockSize, tOld); !errors.Is(err, types.ErrNoVersion) {
		t.Fatalf("short-window history survived its policy window: %v", err)
	}
	if got := e.read(alice, long, 0, types.BlockSize, tOld); !bytes.Equal(got, blockPattern(1)) {
		t.Fatal("default-window history aged too early")
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Recovery classifies with the same per-object cut.
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.read(alice, long, 0, types.BlockSize, tOld); !bytes.Equal(got, blockPattern(1)) {
		t.Fatal("default-window history lost across recovery")
	}
}

// storedSlot is one packed slot a retained journal entry of an object
// points at: the entry's time, the file block it holds the old version
// of, and the slot as stored.
type storedSlot struct {
	t    types.Timestamp
	blk  uint64
	slot delta.Slot
}

// deltaSlots unpacks every slot id's retained entries reference.
func (e *testEnv) deltaSlots(id types.ObjectID) []storedSlot {
	e.t.Helper()
	e.d.mu.Lock()
	defer e.d.mu.Unlock()
	var out []storedSlot
	err := e.d.walkEntriesSnap(e.d.snapshotObject(e.d.objects[id]), nil, func(je *journal.Entry) (bool, error) {
		for k, old := range je.Old {
			if je.DeltaMask&(1<<uint(k)) == 0 {
				continue
			}
			packed, i := splitDeltaRef(uint64(old))
			blk, err := e.d.readBlock(packed)
			if err != nil {
				return false, err
			}
			s, err := delta.UnpackSlot(blk, i)
			if err != nil {
				return false, err
			}
			s.Payload = bytes.Clone(s.Payload)
			out = append(out, storedSlot{t: je.Time, blk: je.FirstBlock + uint64(k), slot: s})
		}
		return false, nil
	})
	if err != nil {
		e.t.Fatal(err)
	}
	return out
}

// textSpan is spanPattern with n bytes of each block replaced by text
// that names the version: the reverse delta of a block is about n bytes
// of INSERT, which DEFLATE would shrink severalfold.
func textSpan(v, blocks, n int) []byte {
	span := spanPattern(v, blocks)
	for b := 0; b < blocks; b++ {
		region := span[b*types.BlockSize+500:][:n]
		phrase := []byte(fmt.Sprintf("version %d of block %d; ", v, b))
		for i := range region {
			region[i] = phrase[i%len(phrase)]
		}
	}
	return span
}

// TestPackerCompressesOnlyToSaveABlock holds the packer's rule at drive
// level, in both directions. Eight old blocks whose raw deltas, ~300
// compressible bytes each, share one packed block with room to spare
// are stored with no DEFLATE stream anywhere: every slot is exactly
// delta.Encode of its pair, 200 overwrites running. Eight whose raw
// deltas are ~1 KB each overflow a block, are stored compressed, and
// land in one block for it.
func TestPackerCompressesOnlyToSaveABlock(t *testing.T) {
	e := newTestDrive(t)
	deltaOn(e)
	const span, rounds = 8, 200
	for _, c := range []struct {
		name      string
		textBytes int
		flate     bool
	}{{"fits one block raw", 300, false}, {"overflows one block raw", 1024, true}} {
		id := e.create(alice)
		times := make([]types.Timestamp, rounds)
		for v := range times {
			e.write(alice, id, 0, textSpan(v, span, c.textBytes))
			times[v] = e.d.Now()
			e.tick()
		}
		slots := e.deltaSlots(id)
		if len(slots) < rounds*span/2 {
			t.Fatalf("%s: %d packed slots after %d overwrites of %d blocks: conversion barely ran", c.name, len(slots), rounds, span)
		}
		for _, s := range slots {
			// The write of version v, stamped at or before times[v] (device
			// I/O advances the clock), pushed out version v-1.
			v := sort.Search(rounds, func(v int) bool { return times[v] >= s.t })
			newer := textSpan(v, span, c.textBytes)[s.blk*types.BlockSize:][:types.BlockSize]
			old := textSpan(v-1, span, c.textBytes)[s.blk*types.BlockSize:][:types.BlockSize]
			raw := delta.Encode(newer, old)
			if len(raw) < c.textBytes {
				t.Fatalf("%s: version %d block %d has a raw delta of %d bytes, the test wants at least %d", c.name, v-1, s.blk, len(raw), c.textBytes)
			}
			payload := s.slot.Payload
			if s.slot.Flate {
				var err error
				if payload, err = delta.Decompress(payload); err != nil {
					t.Fatal(err)
				}
			}
			if s.slot.Flate != c.flate || !bytes.Equal(payload, raw) {
				t.Fatalf("%s: version %d block %d: slot of %d bytes, flate %v, for a raw delta of %d bytes",
					c.name, v-1, s.blk, len(s.slot.Payload), s.slot.Flate, len(raw))
			}
		}
		// One packed block per converting entry, either way.
		st := e.d.GetStats()
		if stored := st.DeltaBytesSaved/types.BlockSize + st.DeltaBlocksWritten; stored != span*st.DeltaBlocksWritten {
			t.Fatalf("%s: %d packed blocks hold %d slots, want %d in each", c.name, st.DeltaBlocksWritten, stored, span)
		}
		for _, v := range []int{0, rounds / 2, rounds - 2} {
			if got := e.read(alice, id, 0, span*types.BlockSize, times[v]); !bytes.Equal(got, textSpan(v, span, c.textBytes)) {
				t.Fatalf("%s: version %d did not read back", c.name, v)
			}
		}
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// deepChain writes versions 0..depth of a span-block object under a
// delta policy, so that version v of every block sits under a chain of
// depth-v links, and returns the time each version was current.
func deepChain(e *testEnv, id types.ObjectID, span, depth int) []types.Timestamp {
	e.t.Helper()
	times := make([]types.Timestamp, depth+1)
	for v := range times {
		e.write(alice, id, 0, spanPattern(v, span))
		times[v] = e.d.Now()
		e.tick()
	}
	return times
}

// TestMaterializedBlockIsPrivate holds what lets a chain decode in
// pooled buffers: the block materializeRef returns belongs to its caller.
// readShared keeps one per block until the reply is assembled, and
// Flush's demotion puts one in the block cache.
func TestMaterializedBlockIsPrivate(t *testing.T) {
	e := newTestDrive(t)
	deltaOn(e)
	const span, depth = 4, 8
	id, other := e.create(alice), e.create(alice)
	t0 := deepChain(e, id, span, depth)[0]
	otherT0 := deepChain(e, other, span, depth-1)[0] // a chain that ends in the other pooled buffer
	want := spanPattern(0, span)

	var held [][]byte
	order := []struct {
		id  types.ObjectID
		at  types.Timestamp
		idx uint64
	}{{id, t0, 0}, {other, otherT0, 0}, {id, t0, 1}, {other, otherT0, 1}, {id, t0, 0}}
	func() {
		e.d.mu.RLock()
		defer e.d.mu.RUnlock()
		for _, b := range order {
			in, err := e.d.inodeAtCached(e.d.snapshotObject(e.d.objects[b.id]), b.at)
			if err != nil {
				t.Fatal(err)
			}
			if !isDeltaRef(in.Block(b.idx)) {
				t.Fatalf("block %d of version 0 is not behind a delta chain", b.idx)
			}
			got, err := e.d.materializeBlock(in, b.idx)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, got)
		}
	}()
	for i, b := range order {
		if !bytes.Equal(held[i], want[b.idx*types.BlockSize:][:types.BlockSize]) {
			t.Fatalf("materialized block %d (of %d) is wrong once later chains were decoded", i, len(order))
		}
	}

	// Demotion: flushing the newest versions away rewrites version 0's
	// slots as plain blocks, decoded through the chains and put in the
	// block cache; later decodes must not write to them.
	if err := e.d.FlushO(admin, id, t0, e.d.Now()-1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if got := e.read(alice, other, 0, span*types.BlockSize, otherT0); !bytes.Equal(got, want) {
			t.Fatal("the other object's version 0 did not read back")
		}
		if got := e.read(alice, id, 0, span*types.BlockSize, t0); !bytes.Equal(got, want) {
			t.Fatal("version 0 did not read back after its chain was flushed away")
		}
	}
	// The erased entries' New blocks were delta-converted by the
	// overwrites above them and left the counts then: a Flush that
	// releases them a second time drives a segment's count negative.
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// historyRecount holds the drive's running history count to a recount
// of the log from scratch (a checkpoint for the floors, a crash, and a
// full-scan open on a drive made with DisableSegIndex): a block
// released twice makes the running count too low, and so does an Old
// pointer left naming a block that was released — the recount finds the
// pointer, the running count does not hold the block.
func historyRecount(e *testEnv) {
	e.t.Helper()
	e.d = recountHistory(e.t, e.d, e.dev, e.d.opts)
}

// recountHistory is historyRecount for a drive on any device: it
// checkpoints d, reopens dev with opts, which must ask for the empty
// base, and returns the reopened drive.
func recountHistory(t *testing.T, d *Drive, dev disk.Device, opts Options) *Drive {
	t.Helper()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ran := d.Status().HistoryBlocks
	re, err := Open(dev, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n := re.Status().HistoryBlocks; n != ran {
		t.Fatalf("running history count %d blocks; a full recount of the log finds %d", ran, n)
	}
	return re
}

// TestFlushKeepsWhatConversionReleased: the blocks below a delta chain
// were released when the chain's first overwrite converted them; their
// content lives in the chain's packed slots. A Flush that erases the
// chain demotes those slots to fresh blocks, and the kept entries around
// the erased range — the write below it, the merge that stands in for it
// — must name the fresh blocks, not the released addresses.
func TestFlushKeepsWhatConversionReleased(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.DisableSegIndex = true })
	deltaOn(e)
	const span, depth = 4, 3
	id := e.create(alice)
	times := deepChain(e, id, span, depth)
	if err := e.d.FlushO(admin, id, times[0], e.d.Now()-1); err != nil {
		t.Fatal(err)
	}
	historyRecount(e)
	if got := e.read(alice, id, 0, span*types.BlockSize, times[0]); !bytes.Equal(got, spanPattern(0, span)) {
		t.Fatal("the version below the erased chain did not read back after the flush and a restart")
	}
	if got := e.read(alice, id, 0, span*types.BlockSize, types.TimeNowest); !bytes.Equal(got, spanPattern(depth, span)) {
		t.Fatal("the live version did not read back after the flush and a restart")
	}
}

// TestFlushTwiceOverDeltaChain: a second Flush over what a first one
// left — its merge entries, the write below them, an overwrite above
// that converted blocks of both — releases every block once, whether it
// erases the earlier entries or keeps them, and so does ageing what is
// left.
func TestFlushTwiceOverDeltaChain(t *testing.T) {
	for _, eraseBelow := range []bool{false, true} {
		t.Run(fmt.Sprintf("eraseBelow=%v", eraseBelow), func(t *testing.T) {
			e := newTestDrive(t, func(o *Options) { o.DisableSegIndex = true })
			deltaOn(e)
			const span = 4
			id := e.create(alice)
			born := e.d.Now()
			e.write(alice, id, 0, spanPattern(0, span))
			t0 := e.d.Now()
			e.tick()
			// The erased range rewrites the span's two outer blocks only:
			// the merge must not cover the two it left alone.
			e.write(alice, id, 0, blockPattern(100))
			e.tick()
			e.write(alice, id, (span-1)*types.BlockSize, blockPattern(103))
			t2 := e.d.Now()
			e.tick()
			if err := e.d.FlushO(admin, id, t0, t2); err != nil {
				t.Fatal(err)
			}
			merged := e.d.Now() // no kept entry follows: the merge is stamped now
			e.tick()
			before := e.d.GetStats().DeltaBlocksWritten
			want := spanPattern(2, span)
			e.write(alice, id, 0, want)
			e.tick()
			if e.d.GetStats().DeltaBlocksWritten == before {
				t.Fatal("the overwrite converted nothing: the test needs the merged blocks behind deltas")
			}
			if got := e.read(alice, id, 0, span*types.BlockSize, t0); !bytes.Equal(got, spanPattern(0, span)) {
				t.Fatal("the version below the merge did not read back through the conversion")
			}
			from := t0 // the merge entries only
			if eraseBelow {
				from = born - 1 // and the first write
			}
			if err := e.d.FlushO(admin, id, from, merged); err != nil {
				t.Fatal(err)
			}
			if !eraseBelow {
				if got := e.read(alice, id, 0, span*types.BlockSize, t0); !bytes.Equal(got, spanPattern(0, span)) {
					t.Fatal("the version below the erased merge did not read back")
				}
			}
			historyRecount(e)
			if got := e.read(alice, id, 0, span*types.BlockSize, types.TimeNowest); !bytes.Equal(got, want) {
				t.Fatal("the live version did not survive the second flush")
			}
			e.clk.Advance(2 * e.d.Status().Window)
			if _, err := e.d.CleanOnce(); err != nil {
				t.Fatal(err)
			}
			historyRecount(e)
		})
	}
}
