package torture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// reopenWeak reopens a (possibly damaged) crash image and exercises it
// without any oracle: the drive may refuse with a clean error, but it
// must never panic and reads must never wedge. Returns a description
// of the first panic, or "".
func reopenWeak(w *run, dev disk.Device) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("panic: %v", r)
		}
	}()
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	drv, err := core.Open(dev, opts)
	if err != nil {
		return "" // clean refusal is acceptable for silent damage
	}
	admin := types.AdminCred()
	_, _ = drv.AuditRead(admin, 0, 0)
	_ = drv.CheckInvariants()
	for _, m := range w.objects {
		ai, err := drv.GetAttr(admin, m.id, types.TimeNowest)
		if err != nil || ai.Deleted || ai.Size == 0 {
			continue
		}
		_, _ = drv.Read(admin, m.id, 0, min64(ai.Size, types.MaxIO), types.TimeNowest)
	}
	return ""
}

// TestDroppedWriteNeverWedges silently discards one acknowledged device
// write (lost-write fault) at every position in turn and requires that
// reopening the resulting image either succeeds or fails cleanly —
// never a panic or a hang. The sector journal records a dropped write
// as empty, so ImageAt materializes the lost-write image directly.
func TestDroppedWriteNeverWedges(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 120}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := w.rec.Writes()
	step := 1
	if testing.Short() {
		step = 7
	}
	for j := 0; j < n; j += step {
		img, err := w.rec.ImageDropping(n, j)
		if err != nil {
			t.Fatal(err)
		}
		if msg := reopenWeak(w, img); msg != "" {
			t.Errorf("write %d dropped: %s", j, msg)
		}
	}
}

// TestBitRotNeverWedges flips bits in a spread of sectors of the final
// image and requires the drive to refuse or serve cleanly, never
// panic: recovery reads arbitrary sectors and every decoder it calls
// must bound-check what it finds.
func TestBitRotNeverWedges(t *testing.T) {
	cfg := Config{Seed: 43, Ops: 120}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := w.rec.Writes()
	rng := rand.New(rand.NewSource(99))
	sectors := w.rec.Capacity() / disk.SectorSize
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for r := 0; r < rounds; r++ {
		img, err := w.rec.ImageAt(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			img.RotSector(rng.Int63n(sectors), byte(1+rng.Intn(255)))
		}
		if msg := reopenWeak(w, img); msg != "" {
			t.Errorf("rot round %d: %s", r, msg)
		}
	}
}

// rotOracle reopens a (possibly rotted) crash image and holds the
// integrity invariant the checksummed format promises: the drive may
// refuse to open, and any read may fail — but a read that *succeeds*
// must return bytes matching some oracle snapshot of the object. Rot
// may cost availability, never integrity. Returns the first violation,
// or "".
func (w *run) rotOracle(dev disk.Device) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("panic: %v", r)
		}
	}()
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	drv, err := core.Open(dev, opts)
	if err != nil {
		return "" // clean refusal is acceptable for silent damage
	}
	admin := types.AdminCred()
	for _, m := range w.objects {
		ai, err := drv.GetAttr(admin, m.id, types.TimeNowest)
		if err != nil || ai.Deleted || ai.Size == 0 {
			continue
		}
		got, err := drv.Read(admin, m.id, 0, min64(ai.Size, types.MaxIO), types.TimeNowest)
		if err != nil {
			continue // detected and reported; that is the contract
		}
		if !w.matchesSnapshot(m, got) {
			return fmt.Sprintf("object %v: read returned %d bytes matching no oracle snapshot (silent rot)", m.id, len(got))
		}
	}
	// Back-in-time reads hold the same bar. With delta conversion on,
	// these materialize through packed delta blocks, so a rotted
	// mid-chain block must surface as a typed error — decoding must
	// never hand back fabricated history.
	for _, m := range w.objects {
		for si := 0; si < len(m.snaps); si += 3 {
			sn := &m.snaps[si]
			if sn.deleted {
				continue
			}
			ai, err := drv.GetAttr(admin, m.id, sn.at)
			if err != nil || ai.Deleted || ai.Size == 0 {
				continue
			}
			got, err := drv.Read(admin, m.id, 0, min64(ai.Size, types.MaxIO), sn.at)
			if err != nil {
				continue
			}
			if !w.matchesSnapshot(m, got) {
				return fmt.Sprintf("object %v: history read at %v returned %d bytes matching no oracle snapshot (silent rot)",
					m.id, sn.at, len(got))
			}
		}
	}
	return ""
}

// matchesSnapshot reports whether got is a prefix of any non-deleted
// oracle snapshot of m. Rot on journal blocks may legitimately roll an
// object back to an earlier durable state, so any snapshot is a valid
// answer — fabricated bytes are not.
func (w *run) matchesSnapshot(m *modelObject, got []byte) bool {
	for i := range m.snaps {
		sn := &m.snaps[i]
		if sn.deleted || len(got) > len(sn.data) {
			continue
		}
		if bytes.Equal(got, sn.data[:len(got)]) {
			return true
		}
	}
	return false
}

// TestBitRotSweepOracle rots random live sectors of crash images taken
// across the workload — including the final image — and holds the full
// integrity oracle on every reopen: no read ever returns data that
// fails to match what was written. This is the strengthened version of
// TestBitRotNeverWedges: with per-block checksums, rot must be
// detected and contained, not merely survived.
func TestBitRotSweepOracle(t *testing.T) {
	cfg := Config{Seed: 47, Ops: 120}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := w.rec.Writes()
	rng := rand.New(rand.NewSource(474))
	sectors := w.rec.Capacity() / disk.SectorSize
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	for r := 0; r < rounds; r++ {
		// Alternate between the final image and earlier crash points, so
		// the rot lands both on settled history and on recovery's own
		// replay path.
		k := n
		if r%2 == 1 {
			k = n * (r + 1) / rounds
		}
		img, err := w.rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			img.RotSector(rng.Int63n(sectors), byte(1+rng.Intn(255)))
		}
		if msg := w.rotOracle(img); msg != "" {
			t.Errorf("rot round %d (crash point %d): %s", r, k, msg)
		}
	}
}

// TestBitRotDeltaChainOracle is TestBitRotSweepOracle with reverse-
// delta conversion on: the workload's small-diff overwrites pack old
// blocks into shared delta blocks, so history reads traverse chains of
// them. Rot landing mid-chain (on a packed block, or on the full block
// a chain bottoms out at) must fail typed at decode — CRCs cover the
// encoded bytes — and never reconstruct plausible-but-wrong history.
func TestBitRotDeltaChainOracle(t *testing.T) {
	cfg := Config{
		Seed: 47, Ops: 120, MaxWriteBlocks: 4,
		Policy: types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true},
	}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.deltaBlocks == 0 {
		t.Fatal("workload wrote no packed delta blocks; the sweep would not cover chains")
	}
	t.Logf("workload packed %d delta blocks", w.deltaBlocks)
	n := w.rec.Writes()
	rng := rand.New(rand.NewSource(747))
	sectors := w.rec.Capacity() / disk.SectorSize
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	for r := 0; r < rounds; r++ {
		k := n
		if r%2 == 1 {
			k = n * (r + 1) / rounds
		}
		img, err := w.rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			img.RotSector(rng.Int63n(sectors), byte(1+rng.Intn(255)))
		}
		if msg := w.rotOracle(img); msg != "" {
			t.Errorf("rot round %d (crash point %d): %s", r, k, msg)
		}
	}
}

// TestDeltaChainConcurrentReaders reads the delta-chain workload's whole
// history back from eight goroutines at once, against the same oracle.
// A chain decodes its intermediate contents in pooled buffers and hands
// its caller a block of its own; under the race detector this is what
// would catch a decode that let two readers share one.
func TestDeltaChainConcurrentReaders(t *testing.T) {
	cfg := Config{
		Seed: 47, Ops: 120, MaxWriteBlocks: 4,
		Policy: types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true},
	}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.deltaBlocks == 0 {
		t.Fatal("workload wrote no packed delta blocks; the readers would not cross chains")
	}
	n := w.rec.Writes()
	img, err := w.rec.ImageAt(n)
	if err != nil {
		t.Fatal(err)
	}
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	drv, err := core.Open(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	winCut := drv.Now() - types.Timestamp(w.opts.Window)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.checkSynced(drv, w.lastMark(n), winCut, func(inv, msg string) {
				t.Errorf("reader %d: %s: %s", r, inv, msg)
			})
		}(r)
	}
	wg.Wait()
}

// TestDeviceErrorFailsCleanly arms a hard I/O error mid-recovery and
// checks the drive reports it instead of panicking.
func TestDeviceErrorFailsCleanly(t *testing.T) {
	cfg := Config{Seed: 44, Ops: 60}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.rec.ImageAt(w.rec.Writes())
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("boom")
	img.FailAfter(0, errBoom)
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	if _, err := core.Open(img, opts); err == nil {
		t.Fatal("open succeeded with a failing device")
	} else if !errors.Is(err, errBoom) {
		t.Fatalf("open error %v does not wrap the device error", err)
	}
}

// ioCounter counts the device I/Os that pass through it.
type ioCounter struct {
	disk.Device
	n int64
}

func (c *ioCounter) ReadSectors(sector int64, buf []byte) error {
	c.n++
	return c.Device.ReadSectors(sector, buf)
}

func (c *ioCounter) WriteSectors(sector int64, buf []byte) error {
	c.n++
	return c.Device.WriteSectors(sector, buf)
}

// TestReadFaultSweep fails, one open at a time, every device I/O a clean
// open of a crash image issues. TestDeviceErrorFailsCleanly arms only the
// first of them, the superblock read; the dangerous ones come later, where
// recovery asks the device a yes-or-no question — is there a summary
// here, is this block covered — and a failed read used to be taken for
// "no": the roll-forward scan skipped the segment and Open succeeded on an
// older prefix, Sync-acked writes gone. The image's last durability point
// is a Sync past the last checkpoint, so that tail is what a swallowed
// error loses. Every open must either fail with the device's error or
// recover a drive that serves everything acked and holds its invariants;
// and since the error is one-shot, a second open of the same image (the
// operator retrying) must recover it too, so a refused open may not have
// cut anything out of the media on its way out.
func TestReadFaultSweep(t *testing.T) {
	// The landmark modes run on an image dense with landmarks: the full
	// scan indexes every landmark in every chain, and either path anchors
	// the inode of every chain it loads at the newest one (loadInode),
	// where taking a failed read of its sector for "no landmark here"
	// would quietly replay from further down on a device that is
	// failing.
	for _, m := range []struct {
		name     string
		cfg      Config
		fullScan bool
	}{
		{"indexed", Config{Seed: 44, Ops: 60}, false},
		{"indexed-landmarks", Config{Seed: 44, Ops: 60, CheckpointEvery: 3}, false},
		{"full-scan-landmarks", Config{Seed: 44, Ops: 60, CheckpointEvery: 3}, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			st := newSyncedTail(t, m.cfg)
			st.opts.DisableSegIndex = m.fullScan
			cnt := &ioCounter{Device: st.image(t)}
			drv, err := core.Open(cnt, st.opts)
			if err != nil {
				t.Fatalf("clean open: %v", err)
			}
			if drv.GetStats().RecoveryReplayEntries == 0 {
				t.Fatal("clean open replayed nothing; the image has no tail to lose")
			}
			total := cnt.n
			clean := drv.StateDigest()
			if m.cfg.CheckpointEvery > 0 && strings.Count(clean, "landmark t=") < 5 {
				t.Fatal("clean open indexed next to no landmarks; the sweep would not fail a landmark's read")
			}
			st.check(t, "clean open", drv)

			errBoom := errors.New("boom")
			refused := 0
			for n := int64(0); n < total; n++ {
				img := st.image(t)
				img.FailAfter(n, errBoom)
				drv, err := core.Open(img, st.opts)
				img.ClearFaults()
				if err == nil {
					// An open that did not need the failed I/O recovers
					// what the clean one did — a swallowed read may not
					// quietly drop a landmark from the index either.
					if got := drv.StateDigest(); got != clean {
						t.Errorf("I/O %d failed, open succeeded on different state: %s", n, digestDiff(clean, got))
					}
					st.check(t, fmt.Sprintf("I/O %d failed, open succeeded", n), drv)
					continue
				}
				refused++
				if !errors.Is(err, errBoom) {
					t.Errorf("I/O %d failed: open error %v does not wrap the device error", n, err)
				}
				if drv, err = core.Open(img, st.opts); err != nil {
					t.Errorf("I/O %d failed: retried open: %v", n, err)
					continue
				}
				st.check(t, fmt.Sprintf("I/O %d failed, retried open", n), drv)
			}
			t.Logf("%d I/Os per clean open of crash point %d; %d opens refused, %d recovered", total, st.k, refused, int(total)-refused)
			if refused == 0 {
				t.Fatal("no injected error ever surfaced")
			}
		})
	}
}

// syncedTail is a crash image whose last durability point is a plain
// Sync past the last checkpoint: the acknowledged writes in between live
// only in the roll-forward tail, so they are what a recovery that reads
// too little loses.
type syncedTail struct {
	w    *run
	k    int // crash point: the writes acknowledged when that Sync returned
	opts core.Options
}

func newSyncedTail(t *testing.T, cfg Config) *syncedTail {
	t.Helper()
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &syncedTail{w: w, k: -1, opts: w.opts}
	for i := 1; i < len(w.syncs); i++ {
		if !w.syncs[i].cp && w.syncs[i].nWrites > w.syncs[i-1].nWrites {
			st.k = w.syncs[i].nWrites
		}
	}
	if st.k < 0 || w.lastCpMark(st.k) == nil {
		t.Fatal("workload has no Sync-acked tail behind a checkpoint; pick another seed")
	}
	st.opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	return st
}

func (st *syncedTail) image(t *testing.T) *disk.Disk {
	t.Helper()
	img, err := st.w.rec.ImageAt(st.k)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// acked calls report for every Sync-acked snapshot drv, recovered from
// the image, does not serve exactly.
func (st *syncedTail) acked(drv *core.Drive, report func(inv, msg string)) {
	st.w.checkSynced(drv, st.w.lastMark(st.k), st.w.endTime-types.Timestamp(st.w.opts.Window), report)
}

// check holds the Sync-acked-content oracle and the structural invariants
// on a drive recovered from the image.
func (st *syncedTail) check(t *testing.T, when string, drv *core.Drive) {
	t.Helper()
	st.acked(drv, func(inv, msg string) { t.Errorf("%s [%s]: %s", when, inv, msg) })
	if err := drv.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", when, err)
	}
}

// TestRottedOpenRecordKeepsAckedTail rots the open record of the segment
// that was open at the crash. The record is what tells the roll-forward
// scan to read the segment; a record that no longer decodes must still
// say "opened", because the alternative reading — "never written" — skips
// the segment's snapshot and opens the drive, without complaint, on the
// state before the acknowledged tail. The control at the end wipes the
// record to zeros, which is exactly that reading, and must lose the tail:
// otherwise this image could not tell the two apart.
func TestRottedOpenRecordKeepsAckedTail(t *testing.T) {
	st := newSyncedTail(t, Config{Seed: 44, Ops: 60})
	const spb = types.BlockSize / disk.SectorSize
	segStart := int64(1 + 2*st.w.cfg.CheckpointBlocks)
	// Open records: block 0 of a segment holding a summary ("S4G5") of
	// zero entries.
	var records []int64
	blk := make([]byte, types.BlockSize)
	probe := st.image(t)
	for b := segStart; (b+int64(st.w.cfg.SegBlocks))*types.BlockSize <= probe.Capacity(); b += int64(st.w.cfg.SegBlocks) {
		if err := probe.ReadSectors(b*spb, blk); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint32(blk[0:]) == 0x53344735 && binary.LittleEndian.Uint32(blk[12:]) == 0 {
			records = append(records, b)
		}
	}
	if len(records) == 0 {
		t.Fatal("no segment of the crash image carries an open record")
	}
	clean, err := core.Open(st.image(t), st.opts)
	if err != nil {
		t.Fatal(err)
	}

	img := st.image(t)
	for _, b := range records {
		img.RotSector(b*spb, 0x5A)
	}
	drv, err := core.Open(img, st.opts)
	if err != nil {
		t.Fatalf("open with %d rotted open records: %v", len(records), err)
	}
	st.check(t, "open record rotted", drv)
	if got, want := drv.GetStats().RecoveryReplayEntries, clean.GetStats().RecoveryReplayEntries; got != want {
		t.Errorf("replayed %d entries behind rotted records, %d on the clean image", got, want)
	}

	wiped := st.image(t)
	for _, b := range records {
		if err := wiped.WriteSectors(b*spb, make([]byte, types.BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if drv, err = core.Open(wiped, st.opts); err != nil {
		return // refusing is one way of not losing the tail quietly
	}
	lost := 0
	st.acked(drv, func(string, string) { lost++ })
	if lost == 0 {
		t.Fatal("control: wiping the open records lost nothing, so the image cannot show what a rotted one must not")
	}
}
