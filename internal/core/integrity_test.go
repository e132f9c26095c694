package core

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Bit-rot fault model: with rot armed on any single sector, a client
// read must return ErrCorrupt or the correct (repaired) bytes — never
// silent garbage. These tests run the same oracle over both fault
// wrappers, so the mem and file backends prove the identical contract.

// rotDev is the rot surface shared by disk.Disk and disk.Injector.
type rotDev interface {
	disk.Device
	RotSector(sector int64, mask byte)
	ClearFaults()
}

// rotBackends returns the two rot-capable devices: the in-memory
// Disk and an Injector over a real file image.
func rotBackends(t *testing.T) map[string]rotDev {
	t.Helper()
	fd, err := disk.OpenFile(t.TempDir()+"/rot.img", 16<<20)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { fd.Close() })
	return map[string]rotDev{
		"mem":  disk.New(disk.SmallDisk(16<<20), nil),
		"file": disk.NewInjector(fd),
	}
}

func newRotDrive(t *testing.T, dev rotDev) (*Drive, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual()
	d, err := Format(dev, Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 64,
		Window:           time.Hour,
		// A one-block cache and no recon cache force every read back to
		// the media, where the rot lives.
		BlockCacheBytes:  types.BlockSize,
		ReconCacheBytes:  -1,
		ObjectCacheCount: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, clk
}

// TestBitRotNeverReturnsGarbage sweeps persistent rot over every sector
// of the drive's settled segments, one at a time, and checks the oracle
// on both a live read and a history read: the bytes are exactly what
// was written, or the error is ErrCorrupt. It then requires that the
// sweep actually tripped the detector (the test would otherwise be
// vacuous).
func TestBitRotNeverReturnsGarbage(t *testing.T) {
	for name, dev := range rotBackends(t) {
		t.Run(name, func(t *testing.T) {
			d, clk := newRotDrive(t, dev)
			id := d2create(t, d)

			// N single-block versions, each synced so the data and its
			// journal entries settle across several sealed segments.
			const versions = 24
			times := make([]types.Timestamp, versions)
			for i := 0; i < versions; i++ {
				v := bytes.Repeat([]byte{byte(0x30 + i)}, types.BlockSize)
				if err := d.Write(alice, id, 0, v); err != nil {
					t.Fatal(err)
				}
				if err := d.Sync(alice); err != nil {
					t.Fatal(err)
				}
				times[i] = d.Now()
				clk.Advance(time.Second)
			}
			expect := func(i int) []byte {
				return bytes.Repeat([]byte{byte(0x30 + i)}, types.BlockSize)
			}

			// Sweep every sector of every settled segment. Segment 0
			// starts right after the superblock and checkpoint area; its
			// base is the summary block of segment 0, one block below the
			// first payload address.
			const sectorsPerBlock = types.BlockSize / disk.SectorSize
			base := int64(d.log.EntryAt(0, 0)) - 1
			segBlocks := int64(d.log.Config().SegBlocks)
			cur := d.log.CurrentSegment()
			checks := 0
			for seg := int64(0); seg < d.log.NumSegments() && seg < 6; seg++ {
				if seg == cur {
					continue // staged blocks are served from memory
				}
				first := (base + seg*segBlocks) * sectorsPerBlock
				for s := first; s < first+segBlocks*sectorsPerBlock; s++ {
					dev.RotSector(s, 0xFF)
					i := checks % versions
					got, err := d.Read(alice, id, 0, types.BlockSize, types.TimeNowest)
					if err == nil {
						if !bytes.Equal(got, expect(versions-1)) {
							t.Fatalf("sector %d: live read returned garbage", s)
						}
					} else if !errors.Is(err, types.ErrCorrupt) {
						t.Fatalf("sector %d: live read failed with %v, want ErrCorrupt", s, err)
					}
					got, err = d.Read(alice, id, 0, types.BlockSize, times[i])
					if err == nil {
						if !bytes.Equal(got, expect(i)) {
							t.Fatalf("sector %d: history read at v%d returned garbage", s, i)
						}
					} else if !errors.Is(err, types.ErrCorrupt) &&
						!errors.Is(err, types.ErrNoVersion) {
						t.Fatalf("sector %d: history read failed with %v, want ErrCorrupt", s, err)
					}
					dev.ClearFaults()
					checks++
				}
			}
			det, rep, _ := d.log.IntegrityStats()
			if det+rep == 0 {
				t.Fatalf("sweep of %d sectors never tripped the detector: vacuous", checks)
			}
			t.Logf("%s: %d sectors swept, %d detected, %d repaired", name, checks, det, rep)

			// With the rot cleared, everything reads back clean.
			for i := 0; i < versions; i++ {
				got, err := d.Read(alice, id, 0, types.BlockSize, times[i])
				if err != nil || !bytes.Equal(got, expect(i)) {
					t.Fatalf("post-sweep read of v%d damaged: %v", i, err)
				}
			}
		})
	}
}

// TestBitRotQuarantineAndScrub arms rot on a settled data block, lets a
// scrub find it, and checks the containment chain: the sweep reports
// the corruption, the segment is quarantined, the cleaner refuses to
// copy it forward, and the drive keeps serving other objects.
func TestBitRotQuarantineAndScrub(t *testing.T) {
	for name, dev := range rotBackends(t) {
		t.Run(name, func(t *testing.T) {
			d, clk := newRotDrive(t, dev)
			victim := d2create(t, d)
			healthy := d2create(t, d)
			for i := 0; i < 20; i++ {
				if err := d.Write(alice, victim, 0, bytes.Repeat([]byte{0xAA}, types.BlockSize)); err != nil {
					t.Fatal(err)
				}
				if err := d.Write(alice, healthy, 0, bytes.Repeat([]byte{0xBB}, types.BlockSize)); err != nil {
					t.Fatal(err)
				}
				if err := d.Sync(alice); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}

			// Rot the victim's settled live block (all sectors, so the
			// flush-buffer repair cannot silently heal it and the
			// quarantine path is exercised deterministically).
			d.mu.RLock()
			addr := d.objects[victim].ino.Block(0)
			d.mu.RUnlock()
			// Push the log head past the victim's segment with filler so
			// the block is settled on media, not staged in memory.
			filler := d2create(t, d)
			for i := 0; d.log.InOpenSegment(addr) && i < 64; i++ {
				if err := d.Write(alice, filler, 0, bytes.Repeat([]byte{0xCC}, 2*types.BlockSize)); err != nil {
					t.Fatal(err)
				}
				if err := d.Sync(alice); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}
			if d.log.InOpenSegment(addr) {
				t.Fatalf("live block still staged; test needs a settled block")
			}
			const sectorsPerBlock = types.BlockSize / disk.SectorSize
			for s := int64(0); s < sectorsPerBlock; s++ {
				dev.RotSector(int64(addr)*sectorsPerBlock+s, 0xFF)
			}

			sr, err := d.Scrub(admin)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if sr.Blocks == 0 {
				t.Fatal("scrub verified no blocks")
			}
			if sr.Corrupt+sr.Repaired == 0 {
				t.Fatalf("scrub missed the injected rot: %+v", sr)
			}
			seg := d.log.SegOf(addr)
			if sr.Corrupt > 0 && !d.log.IsQuarantined(seg) {
				t.Fatalf("unrepaired corruption did not quarantine segment %d", seg)
			}

			// Admin gate: a plain client cannot command a device sweep.
			if _, err := d.Scrub(alice); !errors.Is(err, types.ErrAdminOnly) {
				t.Fatalf("non-admin scrub: %v, want ErrAdminOnly", err)
			}

			// Cleaner containment: a compaction pass over the damaged
			// drive must not wedge and must not relocate the rotted block.
			if _, err := d.CleanOnce(); err != nil {
				t.Fatalf("cleaner wedged on quarantined segment: %v", err)
			}

			// The drive still serves the healthy object.
			got, err := d.Read(alice, healthy, 0, types.BlockSize, types.TimeNowest)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, types.BlockSize)) {
				t.Fatalf("healthy object damaged by containment: %v", err)
			}
			// And the victim reports corruption (or healed bytes), never
			// garbage.
			got, err = d.Read(alice, victim, 0, types.BlockSize, types.TimeNowest)
			if err == nil {
				if !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, types.BlockSize)) {
					t.Fatal("victim read returned garbage")
				}
			} else if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("victim read: %v, want ErrCorrupt", err)
			}

			stats := d.GetStats()
			if stats.CorruptDetected+stats.CorruptRepaired == 0 {
				t.Fatal("integrity counters not surfaced through GetStats")
			}
			if stats.ScrubPasses == 0 || stats.ScrubBlocks == 0 {
				t.Fatalf("scrub counters not surfaced: %+v", sr)
			}
		})
	}
}

// TestScrubDetectsAllRot rots one sector of EVERY settled checksummed
// block on the drive and requires a single scrub pass to account for
// all of them — each either detected (Corrupt) or healed (Repaired).
// 100% detection is the scrubber's contract; anything less means cold
// rot can hide until its redundant copies age out. S4_SCRUB_LONG scales
// the workload up for the nightly full-disk sweep.
func TestScrubDetectsAllRot(t *testing.T) {
	versions := 12
	if os.Getenv("S4_SCRUB_LONG") != "" {
		versions = 150
	}
	for name, dev := range rotBackends(t) {
		t.Run(name, func(t *testing.T) {
			d, clk := newRotDrive(t, dev)
			ids := []types.ObjectID{d2create(t, d), d2create(t, d), d2create(t, d)}
			for i := 0; i < versions; i++ {
				for j, id := range ids {
					pat := byte(0x10*j + i%16)
					if err := d.Write(alice, id, 0, bytes.Repeat([]byte{pat}, 2*types.BlockSize)); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Sync(alice); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}

			// Enumerate every settled block the summaries vouch for and rot
			// its first sector.
			const sectorsPerBlock = types.BlockSize / disk.SectorSize
			cur := d.log.CurrentSegment()
			rotted := 0
			for seg := int64(0); seg < d.log.NumSegments(); seg++ {
				if seg == cur || d.log.IsFree(seg) {
					continue
				}
				sum, ok, err := d.log.ReadSummary(seg)
				if err != nil || !ok {
					continue
				}
				for i, e := range sum.Entries {
					if e.Sum == 0 {
						continue // pad slot: no on-disk checksum to violate
					}
					addr := d.log.EntryAt(seg, i)
					dev.RotSector(int64(addr)*sectorsPerBlock, 0xFF)
					rotted++
				}
			}
			if rotted == 0 {
				t.Fatal("workload settled no checksummed blocks; sweep is vacuous")
			}

			sr, err := d.Scrub(admin)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if sr.Corrupt+sr.Repaired < int64(rotted) {
				t.Fatalf("scrub accounted for %d corrupt + %d repaired of %d rotted blocks: %d escaped detection",
					sr.Corrupt, sr.Repaired, rotted, int64(rotted)-sr.Corrupt-sr.Repaired)
			}
			t.Logf("%s: %d blocks rotted, %d detected, %d repaired, %d segments quarantined",
				name, rotted, sr.Corrupt, sr.Repaired, sr.Quarantined)

			// Clear the injected rot: a follow-up scrub over the healed
			// device must find nothing new (repairs rewrote real bytes, and
			// detection without repair left blocks in place).
			dev.ClearFaults()
			sr2, err := d.Scrub(admin)
			if err != nil {
				t.Fatalf("second scrub: %v", err)
			}
			if sr2.Corrupt != 0 || sr2.Repaired != 0 {
				t.Fatalf("scrub of clean device reported corruption: %+v", sr2)
			}
		})
	}
}

// TestScrubberBackground exercises the paced goroutine end to end on a
// clean drive: start, let it complete at least one pass, stop via Close.
func TestScrubberBackground(t *testing.T) {
	dev := disk.New(disk.SmallDisk(16<<20), nil)
	d, _ := newRotDrive(t, dev)
	id := d2create(t, d)
	if err := d.Write(alice, id, 0, bytes.Repeat([]byte{0x42}, 4*types.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	d.StartScrubber(1 << 20) // fast: the test waits for a full pass
	deadline := time.Now().Add(10 * time.Second)
	for d.scrubPasses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber made no pass in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.StartScrubber(1 << 20) // idempotent while running
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if det, _, _ := d.log.IntegrityStats(); det != 0 {
		t.Fatalf("clean drive scrub detected %d corruptions", det)
	}
}

// TestScrubIsAudited: Scrub passes the admin gate every whole-drive
// admin op does, so like them it leaves one audit record whether it is
// refused or granted, and a closed drive refuses it before the
// credential is looked at.
func TestScrubIsAudited(t *testing.T) {
	e := newTestDrive(t)
	for _, c := range []struct {
		cred types.Cred
		want error
	}{{alice, types.ErrAdminOnly}, {admin, nil}} {
		seq := e.d.auditSeq
		if _, err := e.d.Scrub(c.cred); !errors.Is(err, c.want) {
			t.Fatalf("Scrub as %v: %v, want %v", c.cred.User, err, c.want)
		}
		recs := auditAfter(t, e.d, seq)
		if len(recs) != 1 || recs[0].Op != types.OpScrub || recs[0].Errno != Errno(c.want) {
			t.Fatalf("Scrub as %v left %+v, want one OpScrub record with errno %d", c.cred.User, recs, Errno(c.want))
		}
	}
	if err := e.d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.Scrub(alice); !errors.Is(err, types.ErrDriveStopped) {
		t.Fatalf("Scrub on a closed drive: %v, want ErrDriveStopped", err)
	}
}

// d2create makes an object with a permissive ACL, mirroring testEnv's
// helper for drives not wrapped in a testEnv.
func d2create(t *testing.T, d *Drive) types.ObjectID {
	t.Helper()
	id, err := d.Create(alice, []types.ACLEntry{{User: types.EveryoneID, Perm: types.PermAll}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

var _ = seglog.BlockAddr(0) // keep the import honest if helpers move

// TestColdHeadMergeRefusesForeignSector: the head-merge flush rewrites
// the sector o.jhead names in place. When it has to read that sector
// first (a cold head: no decoded image, as after recovery or a chain
// relocation) it must hold it to the same rule walkChain does — a
// sector owned by another object is corruption, not something to merge
// into and rewrite under this object's id.
func TestColdHeadMergeRefusesForeignSector(t *testing.T) {
	e := newTestDrive(t)
	a, b := e.create(alice), e.create(alice)
	e.write(alice, a, 0, []byte("a's first"))
	e.write(alice, b, 0, []byte("b's first"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	oa, ob := e.d.objects[a], e.d.objects[b]
	if !e.d.log.InOpenSegment(ob.jhead.Block()) {
		t.Fatal("b's head sector left the open segment; the merge path would not run")
	}
	_, _, before, err := journal.ReadSector(e.d.log, ob.jhead)
	if err != nil {
		t.Fatal(err)
	}
	oa.jhead, oa.jheadEntries = ob.jhead, nil
	e.write(alice, a, 0, []byte("a's second"))
	if err := e.d.Sync(alice); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("flush through a foreign head sector: err %v, want ErrCorrupt", err)
	}
	owner, _, after, err := journal.ReadSector(e.d.log, ob.jhead)
	if err != nil || owner != b || len(after) != len(before) {
		t.Errorf("b's head sector afterwards: owner %v, %d entries, err %v; want %v, %d, nil", owner, len(after), err, b, len(before))
	}
}
