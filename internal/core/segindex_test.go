package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// segIndexWorkload runs enough mixed activity on e that the encoded
// index is non-trivial: multiple objects with landmark chains, deleted
// objects, cleaned segments (pendingFree), and shared journal blocks.
func segIndexWorkload(e *testEnv) {
	var ids []types.ObjectID
	for i := 0; i < 6; i++ {
		ids = append(ids, e.create(alice))
	}
	for round := 0; round < 8; round++ {
		for i, id := range ids {
			e.write(alice, id, uint64(i*100), []byte(fmt.Sprintf("round %d object %d payload", round, i)))
		}
		if round == 3 {
			if err := e.d.Delete(alice, ids[5]); err != nil {
				e.t.Fatal(err)
			}
			ids = ids[:5]
			e.tick()
		}
		if round%2 == 1 {
			if err := e.d.Checkpoint(); err != nil {
				e.t.Fatal(err)
			}
			e.tick()
		}
		if _, err := e.d.CleanOnce(); err != nil {
			e.t.Fatal(err)
		}
		e.tick()
	}
	if err := e.d.Sync(alice); err != nil {
		e.t.Fatal(err)
	}
	e.tick()
}

// TestSegIndexRoundTrip encodes the live drive's recovery tables and
// checks the decoded form reproduces them exactly: segment occupancy
// and free bits (with pendingFree folded in), journal-block refcounts,
// and every object's landmark index.
func TestSegIndexRoundTrip(t *testing.T) {
	e := newTestDrive(t)
	segIndexWorkload(e)

	d := e.d
	d.mu.Lock()
	blob := d.encodeSegIndexLocked()
	nSeg := d.log.NumSegments()
	idx, err := decodeSegIndex(blob, nSeg)
	if err != nil {
		d.mu.Unlock()
		t.Fatalf("decode of fresh encode: %v", err)
	}
	if idx.openSeg != d.log.CurrentSegment() {
		t.Errorf("openSeg %d want %d", idx.openSeg, d.log.CurrentSegment())
	}
	if want := d.log.PayloadBlocks() - d.log.Room(); idx.openUsed != want {
		t.Errorf("openUsed %d want %d", idx.openUsed, want)
	}
	for seg := int64(0); seg < nSeg; seg++ {
		wantFree := d.log.IsFree(seg) || d.pendingFree[seg]
		live, hist := d.usage.occupancy(seg)
		if wantFree {
			live, hist = 0, 0
		}
		got := idx.segs[seg]
		if got.free != wantFree || got.live != live || got.hist != hist {
			t.Errorf("seg %d: decoded free=%v live=%d hist=%d, drive free=%v live=%d hist=%d",
				seg, got.free, got.live, got.hist, wantFree, live, hist)
		}
	}
	if len(idx.jrefs) != len(d.jblockRef) {
		t.Errorf("decoded %d jrefs, drive has %d", len(idx.jrefs), len(d.jblockRef))
	}
	for a, c := range d.jblockRef {
		if idx.jrefs[a] != c {
			t.Errorf("jref %v: decoded %d want %d", a, idx.jrefs[a], c)
		}
	}
	if len(idx.objects) != len(d.objects) {
		t.Errorf("decoded %d objects, drive has %d", len(idx.objects), len(d.objects))
	}
	for id, o := range d.objects {
		lms, ok := idx.objects[id]
		if !ok {
			t.Errorf("object %v missing from decoded index", id)
			continue
		}
		if len(lms) != len(o.landmarks) {
			t.Errorf("object %v: decoded %d landmarks, drive has %d", id, len(lms), len(o.landmarks))
			continue
		}
		for i, ln := range o.landmarks {
			if lms[i] != ln {
				t.Errorf("object %v landmark %d: decoded %+v want %+v", id, i, lms[i], ln)
			}
		}
	}
	d.mu.Unlock()
}

// segIndexImage formats a drive on a recording device, runs the round-
// trip workload through a clean Close (whose checkpoint persists the
// index), and returns the recorder plus the options and end time needed
// to reopen crash images of it.
func segIndexImage(t *testing.T) (*disk.Disk, Options, types.Timestamp) {
	t.Helper()
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(32<<20), nil)
	rec.StartRecording()
	opts := Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 16,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	d, err := Format(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{t: t, d: d, clk: clk}
	segIndexWorkload(e)
	end := d.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return rec, opts, end
}

// reopenImage materializes a pristine copy of the full recording and
// opens it with the given index mode, returning the drive and its
// restart stats.
func reopenImage(t *testing.T, rec *disk.Disk, opts Options, end types.Timestamp, disableIndex bool, mutate func(disk.Device)) (*Drive, Stats) {
	t.Helper()
	img, err := rec.ImageAt(rec.Writes())
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(img)
	}
	o := opts
	o.Clock = vclock.NewVirtualAt(end.Time())
	o.DisableSegIndex = disableIndex
	d, err := Open(img, o)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.GetStats()
}

// TestIndexedOpenMatchesFullScan is the clean-shutdown equivalence
// check: an Open anchored at the persisted segment index must land on
// byte-identical state to a full-scan recount of the same image, while
// replaying strictly fewer journal entries, and must say so through the
// restart counters.
func TestIndexedOpenMatchesFullScan(t *testing.T) {
	rec, opts, end := segIndexImage(t)

	di, si := reopenImage(t, rec, opts, end, false, nil)
	if si.IndexLoads != 1 || si.IndexFallbacks != 0 {
		t.Errorf("indexed open: IndexLoads=%d IndexFallbacks=%d, want 1/0", si.IndexLoads, si.IndexFallbacks)
	}
	if si.OpenDuration <= 0 {
		t.Errorf("indexed open: OpenDuration=%v, want > 0", si.OpenDuration)
	}
	digestIdx := di.StateDigest()
	if err := di.CheckInvariants(); err != nil {
		t.Errorf("indexed open invariants: %v", err)
	}
	if err := di.CheckLandmarks(); err != nil {
		t.Errorf("indexed open landmarks: %v", err)
	}

	df, sf := reopenImage(t, rec, opts, end, true, nil)
	if sf.IndexLoads != 0 {
		t.Errorf("full-scan open: IndexLoads=%d, want 0", sf.IndexLoads)
	}
	digestFull := df.StateDigest()
	if err := df.CheckInvariants(); err != nil {
		t.Errorf("full-scan open invariants: %v", err)
	}

	if digestIdx != digestFull {
		t.Errorf("indexed and full-scan recovery diverged:\nindexed:\n%s\nfull:\n%s", digestIdx, digestFull)
	}
	if si.RecoveryReplayEntries >= sf.RecoveryReplayEntries {
		t.Errorf("indexed open replayed %d entries, full scan %d: index not shortening recovery",
			si.RecoveryReplayEntries, sf.RecoveryReplayEntries)
	}
}

// TestIndexedReplayTenfold is the instant-restart claim as a count
// (DESIGN.md §14): on a crash image with thousands of checkpointed
// versions and a 16-write synced tail, the persisted segment index must
// cut the journal entries recovery replays at least tenfold against a
// full scan, on the memory and the real-file backend alike. Indexed
// replay is O(tail) — ~300 entries whatever the depth — and a full
// scan re-walks every chain, so the ratio is 17.6x at depth 5,000.
func TestIndexedReplayTenfold(t *testing.T) {
	const depth, objects, devBytes = 5000, 8, 64 << 20
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var dev disk.Device = disk.New(disk.SmallDisk(devBytes), nil)
			if backend == "file" {
				fd, err := disk.OpenFile(t.TempDir()+"/restart.img", devBytes)
				if err != nil {
					t.Fatal(err)
				}
				defer fd.Close()
				dev = fd
			}
			clk := vclock.NewVirtual()
			opts := Options{Clock: clk, Window: time.Hour}
			d, err := Format(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := &testEnv{t: t, d: d, clk: clk}
			ids := make([]types.ObjectID, objects)
			for i := range ids {
				ids[i] = e.create(alice)
				e.write(alice, ids[i], 0, make([]byte, 2*types.BlockSize))
			}
			patch := func(v int) {
				e.write(alice, ids[v%objects], uint64(v*37%(2*types.BlockSize-512)), bytes.Repeat([]byte{byte(v)}, 512))
			}
			for v := 0; v < depth; v++ {
				patch(v)
				if (v+1)%256 == 0 {
					if err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for v := depth; v < depth+16; v++ {
				patch(v)
			}
			if err := d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			// Abandoned, not closed: dev now holds what a crash leaves,
			// and each Open below is abandoned again to keep it so.
			replayed := func(disableIndex bool) Stats {
				o := opts
				o.Clock = vclock.NewVirtualAt(d.Now().Time())
				o.DisableSegIndex = disableIndex
				r, err := Open(dev, o)
				if err != nil {
					t.Fatal(err)
				}
				return r.GetStats()
			}
			si, sf := replayed(false), replayed(true)
			if si.IndexLoads != 1 || si.IndexFallbacks != 0 {
				t.Errorf("indexed open: IndexLoads=%d IndexFallbacks=%d, want 1/0", si.IndexLoads, si.IndexFallbacks)
			}
			t.Logf("replayed %d entries indexed, %d full scan", si.RecoveryReplayEntries, sf.RecoveryReplayEntries)
			if 10*si.RecoveryReplayEntries > sf.RecoveryReplayEntries {
				t.Errorf("indexed open replayed %d entries, full scan %d: less than a 10x reduction",
					si.RecoveryReplayEntries, sf.RecoveryReplayEntries)
			}
		})
	}
}

// corruptNewestSlotIndex flips one byte inside the index region of the
// newest checkpoint slot, leaving the object-map blob and its CRC
// intact — the durable image a tear through the tail of the slot write
// leaves behind.
func corruptNewestSlotIndex(t *testing.T, dev disk.Device, cpBlocks int) {
	t.Helper()
	const spb = types.BlockSize / disk.SectorSize
	hdr := make([]byte, types.BlockSize)
	bestSlot, bestSeq := -1, uint64(0)
	var bestOff int
	for slot := 0; slot < 2; slot++ {
		base := int64((1 + slot*cpBlocks) * spb)
		if err := dev.ReadSectors(base, hdr); err != nil {
			t.Fatal(err)
		}
		seq := binary.LittleEndian.Uint64(hdr[4:])
		lenA := int(binary.LittleEndian.Uint32(hdr[12:]))
		lenB := int(binary.LittleEndian.Uint32(hdr[20:]))
		if lenB == 0 {
			continue
		}
		if bestSlot < 0 || seq > bestSeq {
			bestSlot, bestSeq = slot, seq
			bestOff = 48 + lenA // cpHeaderSize + state blob = first index byte
		}
	}
	if bestSlot < 0 {
		t.Fatal("no checkpoint slot carries an index")
	}
	base := int64((1 + bestSlot*cpBlocks) * spb)
	sector := base + int64(bestOff/disk.SectorSize)
	buf := make([]byte, disk.SectorSize)
	if err := dev.ReadSectors(sector, buf); err != nil {
		t.Fatal(err)
	}
	buf[bestOff%disk.SectorSize] ^= 0xFF
	if err := dev.WriteSectors(sector, buf); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSegIndexFallsBack flips a byte in the persisted index
// (object map untouched) and proves the degraded path: Open succeeds,
// counts exactly one IndexFallbacks, replays the full journal, and
// recovers state byte-identical to an Open that never looked at the
// index.
func TestCorruptSegIndexFallsBack(t *testing.T) {
	rec, opts, end := segIndexImage(t)
	corrupt := func(dev disk.Device) { corruptNewestSlotIndex(t, dev, opts.CheckpointBlocks) }

	di, si := reopenImage(t, rec, opts, end, false, corrupt)
	if si.IndexFallbacks != 1 || si.IndexLoads != 0 {
		t.Errorf("corrupt index open: IndexLoads=%d IndexFallbacks=%d, want 0/1", si.IndexLoads, si.IndexFallbacks)
	}
	digestIdx := di.StateDigest()
	if err := di.CheckInvariants(); err != nil {
		t.Errorf("fallback open invariants: %v", err)
	}

	df, sf := reopenImage(t, rec, opts, end, true, corrupt)
	if digestIdx != df.StateDigest() {
		t.Errorf("fallback recovery diverged from full scan:\nfallback:\n%s\nfull:\n%s", digestIdx, df.StateDigest())
	}
	if si.RecoveryReplayEntries != sf.RecoveryReplayEntries {
		t.Errorf("fallback replayed %d entries, full scan %d: fallback is not a full replay",
			si.RecoveryReplayEntries, sf.RecoveryReplayEntries)
	}
}

// TestSegIndexDecodeRejectsCorruption walks targeted mutations of a
// valid index blob and checks each fails with a typed ErrCorrupt, never
// a panic or a silently-wrong accept.
func TestSegIndexDecodeRejectsCorruption(t *testing.T) {
	e := newTestDrive(t)
	segIndexWorkload(e)
	e.d.mu.Lock()
	blob := e.d.encodeSegIndexLocked()
	nSeg := e.d.log.NumSegments()
	e.d.mu.Unlock()

	if _, err := decodeSegIndex(blob, nSeg); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:4] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 1; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAB) }},
		{"flipped body byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
	}
	for _, tc := range cases {
		b := append([]byte(nil), blob...)
		b = tc.mut(b)
		idx, err := decodeSegIndex(b, nSeg)
		if err == nil {
			// A single flipped byte can land in slack a varint ignores
			// only if it still decodes to identical structure; anything
			// accepted must at least be structurally consistent.
			if verr := checkSegIndexShape(idx, nSeg); verr != nil {
				t.Errorf("%s: accepted inconsistent index: %v", tc.name, verr)
			}
			continue
		}
		if !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
	if _, err := decodeSegIndex(blob, nSeg+1); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("geometry mismatch: err %v does not wrap ErrCorrupt", err)
	}
	// An index written before a format change must be refused (the open
	// then takes the full scan), never read as the current layout.
	if _, err := decodeSegIndex(segIndexV1Blob(t), segIndexV1Segs); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("version-1 index: err %v, want a rejection wrapping ErrCorrupt", err)
	}
	if _, err := decodeSegIndex(segIndexV2Blob(t), segIndexV2Segs); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("version-2 index: err %v, want a rejection wrapping ErrCorrupt", err)
	}
}

// segIndexV1Blob is a genuine version-1 index (per-object aging hint,
// no open-segment fill), encoded by the last commit that wrote that
// format for a 15-segment log holding the partition table and one
// thrice-written object with a landmark.
const segIndexV1Segs = 15

func segIndexV1Blob(t testing.TB) []byte {
	b, err := hex.DecodeString("58493453010000000f01000305010000010000010000010000010000010000010000010000010000" +
		"01000001000001000001000001000001100202020090aeb598d4aa92bf0d0190eed292f1c191bf0d020a80011000b8a2f79ed4aa" +
		"92bf0d02b8e29499f1c191bf0d020b8101b8eb8e9af1c191bf0d040e8101")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// segIndexV2Blob is a genuine version-2 index (a flags varint per
// object), encoded by the last commit that wrote that format for a
// 30-segment log holding the partition table and one thrice-written
// object with two landmarks.
const segIndexV2Segs = 30

func segIndexV2Blob(t testing.TB) []byte {
	b, err := hex.DecodeString("58493453020000001e01090003050100000100000100000100000100000100000100000100000100000100000100000100000100" +
		"00010000010000010000010000010000010000010000010000010000010000010000010000010000010000010000010000011802" +
		"02020001b8a7f3f6f1c191bf0d0212c001100002b8a7f3f6f1c191bf0d0213c101b8b0edf7f1c191bf0d0416c101")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkSegIndexShape verifies the structural guarantees decodeSegIndex
// promises for any blob it accepts.
func checkSegIndexShape(idx *segIndex, nSeg int64) error {
	if idx.openSeg < -1 || idx.openSeg >= nSeg {
		return fmt.Errorf("openSeg %d out of range", idx.openSeg)
	}
	if int64(len(idx.segs)) != nSeg {
		return fmt.Errorf("%d segs, want %d", len(idx.segs), nSeg)
	}
	if idx.openSeg >= 0 && idx.segs[idx.openSeg].free {
		return fmt.Errorf("open segment %d marked free", idx.openSeg)
	}
	if idx.openUsed < 0 || (idx.openSeg < 0 && idx.openUsed != 0) {
		return fmt.Errorf("open segment %d with fill %d", idx.openSeg, idx.openUsed)
	}
	for seg, s := range idx.segs {
		if s.live < 0 || s.hist < 0 {
			return fmt.Errorf("seg %d: negative counters %d/%d", seg, s.live, s.hist)
		}
		if s.free && (s.live != 0 || s.hist != 0) {
			return fmt.Errorf("seg %d: free but occupied %d/%d", seg, s.live, s.hist)
		}
	}
	for a, c := range idx.jrefs {
		if c < 1 || c > journal.SectorsPerBlock {
			return fmt.Errorf("jref %v: count %d out of range", a, c)
		}
	}
	for id, lms := range idx.objects {
		for i, ln := range lms {
			if ln.root == seglog.NilAddr {
				return fmt.Errorf("object %v landmark %d: nil root", id, i)
			}
			if i > 0 {
				prev := lms[i-1]
				if ln.time < prev.time || ln.time == prev.time && ln.version <= prev.version {
					return fmt.Errorf("object %v landmarks out of order at %d", id, i)
				}
			}
		}
	}
	return nil
}

// fuzzSeedDrive is a small closed drive with four objects, five
// checkpointed rounds of writes behind them and a landmark floor on
// one: what the checkpoint decoders' fuzz seeds are encoded from. (The
// encoders only read the drive's tables, so closed is fine.)
func fuzzSeedDrive(f testing.TB) *Drive {
	clk := vclock.NewVirtual()
	dev := disk.New(disk.SmallDisk(64<<20), clk)
	opts := Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 64,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	d, err := Format(dev, opts)
	if err != nil {
		f.Fatal(err)
	}
	cred := types.Cred{User: 100, Client: 1}
	var ids []types.ObjectID
	for i := 0; i < 4; i++ {
		id, err := d.Create(cred, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
		clk.Advance(time.Millisecond)
	}
	for round := 0; round < 5; round++ {
		for _, id := range ids {
			if err := d.Write(cred, id, 0, []byte("fuzz seed payload")); err != nil {
				f.Fatal(err)
			}
			clk.Advance(time.Millisecond)
		}
		if err := d.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	d.objects[ids[0]].lmFloor = 3
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	return d
}

// FuzzSegIndexDecode throws hostile bytes at the index decoder. The
// contract under fuzzing: never panic, never allocate absurdly, and
// anything accepted must satisfy the structural guarantees indexed
// recovery relies on (checkSegIndexShape).
func FuzzSegIndexDecode(f *testing.F) {
	d := fuzzSeedDrive(f)
	seed := d.encodeSegIndexLocked()
	nSeg := d.log.NumSegments()

	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:9])
	f.Add([]byte{})
	for _, i := range []int{8, 10, len(seed) / 3, len(seed) - 2} {
		b := append([]byte(nil), seed...)
		b[i] ^= 0xFF
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), seed...), 0x01))
	f.Add(segIndexV1Blob(f))
	f.Add(segIndexV2Blob(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := decodeSegIndex(data, nSeg)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if verr := checkSegIndexShape(idx, nSeg); verr != nil {
			t.Fatalf("accepted structurally inconsistent index: %v", verr)
		}
	})
}

// TestRelocatedOverwriteFallsBack pins the one tail the index cannot
// replay. The cleaner moves a live block after the checkpoint (in
// memory only, until its barrier), a write then journals the copy's
// address in Old, and the drive crashes before any barrier: the
// persisted counters hold the original, which no entry ever retires.
// Indexed recovery must notice the unborn block and take the full
// recount rather than leave one segment a live block short.
func TestRelocatedOverwriteFallsBack(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	// Fifteen blocks fill the first segment's payload exactly; all but
	// blocks 0 and 1 are then superseded and the state checkpointed.
	e.write(alice, id, 0, bytes.Repeat([]byte{'1'}, 15*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.write(alice, id, 2*types.BlockSize, bytes.Repeat([]byte{'2'}, 13*types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Past the window one cleaner pass releases the thirteen and, the
	// segment now holding two live blocks and nothing else, copies those
	// forward — with too few emptied segments to reach its barrier.
	e.clk.Advance(2 * time.Hour)
	cs, err := e.d.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if cs.BlocksCopied == 0 {
		t.Fatalf("cleaner relocated nothing (%+v); the scenario needs a post-checkpoint copy", cs)
	}
	e.write(alice, id, 0, bytes.Repeat([]byte{'3'}, types.BlockSize))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}

	e.reopen() // crash: the relocation never reached a checkpoint
	st := e.d.GetStats()
	if st.IndexLoads != 0 || st.IndexFallbacks != 1 {
		t.Errorf("IndexLoads=%d IndexFallbacks=%d, want 0/1", st.IndexLoads, st.IndexFallbacks)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	got := e.d.StateDigest()
	e.d.opts.DisableSegIndex = true
	e.reopen()
	if want := e.d.StateDigest(); got != want {
		t.Errorf("fallback diverged from the full scan:\nfallback:\n%s\nfull:\n%s", got, want)
	}
	if b := e.read(alice, id, 0, 2*types.BlockSize, types.TimeNowest); b[0] != '3' || b[types.BlockSize] != '1' {
		t.Errorf("blocks 0,1 read %q,%q, want '3','1'", b[0], b[types.BlockSize])
	}
}
