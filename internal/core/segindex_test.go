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
// every object's landmark index, and the image of every loaded inode.
// An index without images is the same bytes up to a zero count.
func TestSegIndexRoundTrip(t *testing.T) {
	e := newTestDrive(t)
	segIndexWorkload(e)

	d := e.d
	d.mu.Lock()
	blob := d.encodeSegIndexLocked(true)
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
	// Evict one object: a checkpoint after that carries no image of it.
	evicted := d.objOrder[len(d.objOrder)-1]
	d.objects[evicted].ino = nil
	d.loaded.Add(-1)
	blob = d.encodeSegIndexLocked(true)
	idx, err = decodeSegIndex(blob, nSeg)
	if err != nil {
		d.mu.Unlock()
		t.Fatalf("decode of an encode with images: %v", err)
	}
	imaged := 0
	for id, o := range d.objects {
		img, ok := idx.images[id]
		switch {
		case o.ino == nil && ok:
			t.Errorf("object %v: image of an inode not loaded", id)
		case o.ino == nil:
		case !ok:
			t.Errorf("object %v: loaded, but no image", id)
		default:
			imaged++
			in, _, err := decodeInodeRoot(nil, img)
			if err != nil {
				t.Errorf("object %v: image does not decode: %v", id, err)
			} else if diff := inodeDiff(in, o.ino); diff != "" {
				t.Errorf("object %v: image differs from the inode (%s)", id, diff)
			}
		}
	}
	if imaged < 5 || len(idx.images) != imaged {
		t.Errorf("%d images decoded for %d loaded objects; want one each, at least five", len(idx.images), imaged)
	}
	bare := d.encodeSegIndexLocked(false)
	d.mu.Unlock()
	if n := len(bare) - 1; n >= len(blob) || !bytes.Equal(bare[:n], blob[:n]) || bare[n] != 0 {
		t.Errorf("the index without images is not the index with them cut to a zero count")
	}
	if idx, err := decodeSegIndex(bare, nSeg); err != nil {
		t.Errorf("the index without images: %v", err)
	} else if len(idx.images) != 0 {
		t.Errorf("the index without images decodes %d images", len(idx.images))
	}
}

// newestSlot returns the checkpoint slot on dev with the higher seq,
// and its header block.
func newestSlot(t *testing.T, dev disk.Device, cpBlocks int) (int, []byte) {
	t.Helper()
	best, hdrs := 0, [2][]byte{}
	for slot := range hdrs {
		hdrs[slot] = make([]byte, types.BlockSize)
		if err := dev.ReadSectors(int64((1+slot*cpBlocks)*(types.BlockSize/disk.SectorSize)), hdrs[slot]); err != nil {
			t.Fatal(err)
		}
	}
	if binary.LittleEndian.Uint64(hdrs[1][4:]) > binary.LittleEndian.Uint64(hdrs[0][4:]) {
		best = 1
	}
	return best, hdrs[best]
}

// newestSlotIndex returns the index blob of the newest checkpoint slot
// on dev, nil if that slot carries none.
func newestSlotIndex(t *testing.T, dev disk.Device, cpBlocks int) []byte {
	t.Helper()
	slot, hdr := newestSlot(t, dev, cpBlocks)
	lenA, lenB := int(binary.LittleEndian.Uint32(hdr[12:])), int(binary.LittleEndian.Uint32(hdr[20:]))
	blob := make([]byte, (48+lenA+lenB+types.BlockSize-1)/types.BlockSize*types.BlockSize)
	if err := dev.ReadSectors(int64((1+slot*cpBlocks)*(types.BlockSize/disk.SectorSize)), blob); err != nil {
		t.Fatal(err)
	}
	if lenB == 0 {
		return nil
	}
	// Past the 48-byte header and the object map.
	return blob[48+lenA : 48+lenA+lenB]
}

// TestSegIndexImagesDropFirst fills a one-block checkpoint slot: the
// index with the images of twelve hundred-block objects does not fit
// beside the object map, the index without them does. The checkpoint
// keeps the index and drops the images, so the next open still anchors
// at the index, loads the objects from the log, and recovers the state
// the empty base does.
func TestSegIndexImagesDropFirst(t *testing.T) {
	e := newTestDriveOn(t, disk.New(disk.SmallDisk(16<<20), nil), vclock.NewVirtual(), func(o *Options) { o.CheckpointBlocks = 1 })
	ids := make([]types.ObjectID, 12)
	for i := range ids {
		ids[i] = e.create(alice)
		e.write(alice, ids[i], 0, bytes.Repeat([]byte{byte(i)}, 100*types.BlockSize))
	}
	d := e.d
	d.mu.Lock()
	room := d.log.CheckpointCapacity() - len(d.encodeImapLocked())
	with, without := len(d.encodeSegIndexLocked(true)), len(d.encodeSegIndexLocked(false))
	d.mu.Unlock()
	if with <= room || without > room {
		t.Fatalf("index %d B with images, %d B without, %d B of room: want only the smaller to fit", with, without, room)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blob := newestSlotIndex(t, e.dev, 1)
	idx, err := decodeSegIndex(blob, d.log.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.images) != 0 {
		t.Fatalf("the slot's index carries %d images; want none", len(idx.images))
	}
	for i := range ids {
		e.write(alice, ids[i], 0, []byte("tail"))
	}
	if err := d.Sync(alice); err != nil {
		t.Fatal(err)
	}

	e.reopen()
	if st := e.d.GetStats(); st.IndexLoads != 1 || st.IndexFallbacks != 0 {
		t.Errorf("IndexLoads=%d IndexFallbacks=%d, want 1/0", st.IndexLoads, st.IndexFallbacks)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	got := e.d.StateDigest()
	e.d.opts.DisableSegIndex = true
	e.reopen()
	if want := e.d.StateDigest(); got != want {
		t.Errorf("the open without images diverged from the full scan:\n%s\n--\n%s", got, want)
	}
}

// TestSegIndexV3FallsBack writes a genuine version-3 index beside the
// object map, as a drive before inode images did, and crashes: the open
// refuses it on its version, counts one fallback, and recovers the
// state of the empty base. A version-3 index is a version-4 one without
// its image count.
func TestSegIndexV3FallsBack(t *testing.T) {
	e := newTestDrive(t)
	segIndexWorkload(e)
	d := e.d
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	bare := d.encodeSegIndexLocked(false)
	v3 := bytes.Clone(bare[:len(bare)-1])
	binary.LittleEndian.PutUint32(v3[4:], 3)
	err := d.log.WriteCheckpoint(d.encodeImapLocked(), v3)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	e.reopen()
	if st := e.d.GetStats(); st.IndexLoads != 0 || st.IndexFallbacks != 1 {
		t.Errorf("IndexLoads=%d IndexFallbacks=%d, want 0/1", st.IndexLoads, st.IndexFallbacks)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	got := e.d.StateDigest()
	e.d.opts.DisableSegIndex = true
	e.reopen()
	if want := e.d.StateDigest(); got != want {
		t.Errorf("the open over a version-3 index diverged from the full scan:\n%s\n--\n%s", got, want)
	}
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
	blob := e.d.encodeSegIndexLocked(true)
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
	if _, err := decodeSegIndex(segIndexV3Blob(t), segIndexV3Segs); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("version-3 index: err %v, want a rejection wrapping ErrCorrupt", err)
	}
	if _, err := decodeSegIndex(segIndexV4Blob(t), segIndexV4Segs); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("version-4 index: err %v, want a rejection wrapping ErrCorrupt", err)
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

// segIndexV3Blob is a genuine version-3 index (no inode images),
// encoded by the last commit that wrote that format for a 31-segment
// log holding the partition table and one thrice-written object, each
// with a landmark on every entry.
const segIndexV3Segs = 31

func segIndexV3Blob(t testing.TB) []byte {
	b, err := hex.DecodeString("58493453030000001f010b00010a0100000100000100000100000100000100000100000100000100000100000100000100" +
		"000100000100000100000100000100000100000100000100000100000100000100000100000100000100000100000100000100" +
		"000002020380c0e2e0f0c191bf0d010a0080c0e2e0f0c191bf0d020b0080c0e2e0f0c191bf0d030c00100580c0e2e0f0c191bf" +
		"0d010d0080c0e2e0f0c191bf0d020e00c0c49fe1f0c191bf0d031000c0cd99e2f0c191bf0d041200c0d693e3f0c191bf0d051400")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// segIndexV4Blob is a genuine version-4 index (a root block address in
// every landmark), encoded by the last commit that wrote that format for
// a 31-segment log holding the partition table and one thrice-written
// object, each with a landmark on every entry and an inode image.
const segIndexV4Segs = 31

func segIndexV4Blob(t testing.TB) []byte {
	b, err := hex.DecodeString("58493453040000001f010e00030a0100000100000100000100000100000100000100000100000100000100000100000100000100" +
		"00010000010000010000010000010000010000010000010000010000010000010000010000010000010000010000010000010000" +
		"01150202020390c7e59af1c191bf0d010aa80190c7e59af1c191bf0d020ba80190c7e59af1c191bf0d030ca801100590c7e59af1" +
		"c191bf0d010da90190c7e59af1c191bf0d020ea901d0cba29bf1c191bf0d0310a90190d0df9bf1c191bf0d0412a901d0d49c9cf1" +
		"c191bf0d0514a90102024e444e3453020000000000000003000000000000000000000000000000906359130f467e0d906359130f" +
		"467e0d000000000000000000000002000000001f000000feffffff010000000000000000001048444e3453100000000000000005" +
		"000000000000000200000000000000906359130f467e0d502a87130f467e0d000000000000000000000001640000001f00000000" +
		"00010000000013")
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
	for id, img := range idx.images {
		if _, ok := idx.objects[id]; !ok || len(img) == 0 || len(img) > seglog.BlockSize {
			return fmt.Errorf("image of %v: %d bytes, object indexed %v", id, len(img), ok)
		}
	}
	for id, lms := range idx.objects {
		for i, ln := range lms {
			if ln.sector == journal.NilSector {
				return fmt.Errorf("object %v landmark %d: nil sector", id, i)
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

// FuzzSegIndexDecode throws hostile bytes at the index decoder and at
// the inode images it accepts. The contract under fuzzing: never panic,
// never allocate absurdly, and anything accepted must satisfy the
// structural guarantees indexed recovery relies on (checkSegIndexShape).
// The seed is a genuine index carrying the image of every object.
func FuzzSegIndexDecode(f *testing.F) {
	d := fuzzSeedDrive(f)
	seed := d.encodeSegIndexLocked(true)
	nSeg := d.log.NumSegments()
	if idx, err := decodeSegIndex(seed, nSeg); err != nil {
		f.Fatal(err)
	} else if len(idx.images) != len(d.objects) {
		f.Fatalf("seed carries %d images of %d objects", len(idx.images), len(d.objects))
	}

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
	f.Add(segIndexV3Blob(f))
	f.Add(segIndexV4Blob(f))

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
		for id, img := range idx.images {
			if _, _, err := decodeInodeRoot(nil, img); err != nil && !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("image of %v: error %v does not wrap ErrCorrupt", id, err)
			}
		}
	})
}

// TestRelocatedOverwriteFallsBack pins the one tail the index cannot
// replay. The cleaner moves a live block after the checkpoint (in
// memory only, until its barrier), a write then journals the copy's
// address in Old, and the drive crashes before any barrier: the
// persisted counters hold the original, which no entry ever retires.
// Indexed recovery must notice the unborn block and take the full
// recount rather than leave one segment a live block short. The
// checkpoint carries the inode image of every object, and the tail
// also patches three more: the roll-forward scan loads each object from
// its image and redoes the tail on top before the usage rebuild
// reinstalls the empty base, and the images went in once, before the
// scan, so the redone inodes stay and every acked write reads back.
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
	others := make([]types.ObjectID, 3)
	for i := range others {
		others[i] = e.create(alice)
		e.write(alice, others[i], 0, bytes.Repeat([]byte{'a' + byte(i)}, 2*types.BlockSize))
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idx, err := decodeSegIndex(newestSlotIndex(t, e.dev, e.d.opts.CheckpointBlocks), e.d.log.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range append([]types.ObjectID{id}, others...) {
		if idx.images[o] == nil {
			t.Fatalf("the checkpoint carries no image of %v", o)
		}
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
	for i, o := range others {
		e.write(alice, o, types.BlockSize, bytes.Repeat([]byte{'A' + byte(i)}, 512))
	}
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
	if b := e.read(alice, id, 0, 2*types.BlockSize, types.TimeNowest); b[0] != '3' || b[types.BlockSize] != '1' {
		t.Errorf("blocks 0,1 read %q,%q, want '3','1'", b[0], b[types.BlockSize])
	}
	for i, o := range others {
		if b := e.read(alice, o, 0, 2*types.BlockSize, types.TimeNowest); b[0] != 'a'+byte(i) || b[types.BlockSize] != 'A'+byte(i) {
			t.Errorf("blocks 0,1 of %v read %q,%q, want %q,%q", o, b[0], b[types.BlockSize], 'a'+byte(i), 'A'+byte(i))
		}
	}
	e.d.opts.DisableSegIndex = true
	e.reopen()
	if want := e.d.StateDigest(); got != want {
		t.Errorf("fallback diverged from the full scan:\nfallback:\n%s\nfull:\n%s", got, want)
	}
}
