package torture

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// copyToFileDisk materializes a crash image onto a real preallocated
// file, so the same oracle checks that run against the simulated device
// run against the file backend byte-for-byte.
func copyToFileDisk(t *testing.T, img *disk.Disk, path string) *disk.FileDisk {
	t.Helper()
	fd, err := disk.OpenFile(path, img.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fd.Close() })
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for off := int64(0); off < img.Capacity(); off += chunk {
		n := img.Capacity() - off
		if n > chunk {
			n = chunk
		}
		sector := off / disk.SectorSize
		if err := img.ReadSectors(sector, buf[:n]); err != nil {
			t.Fatal(err)
		}
		if err := fd.WriteSectors(sector, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	return fd
}

// TestTortureFileBackend replays a sample of the crash-point sweep —
// including torn images and the recovery-equivalence differential —
// with every image copied onto a disk.FileDisk in a tempdir. The file
// backend must hold exactly the invariants the simulated device holds.
func TestTortureFileBackend(t *testing.T) {
	cfg := Config{
		Seed:              7,
		Ops:               120,
		Torn:              true,
		PostRecoverySmoke: true,
	}
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n := w.rec.Writes()
	sample := 24
	if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
		sample = 8
	}
	var res Result
	for i := 0; i < sample; i++ {
		k := i * n / (sample - 1)
		if k > n {
			k = n
		}
		img, err := w.rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		img2, err := w.rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		fd := copyToFileDisk(t, img, filepath.Join(dir, fmt.Sprintf("crash%d.img", k)))
		fd2 := copyToFileDisk(t, img2, filepath.Join(dir, fmt.Sprintf("crash%d.full.img", k)))
		res.CrashPoints++
		for _, v := range w.verifyImage(&res, fd, fd2, k, false) {
			t.Errorf("file backend: %s", v)
		}
		if k >= n {
			continue
		}
		if sec := w.rec.Record(k).Sectors(); sec >= 2 {
			timg, err := w.rec.TornImageAt(k, sec/2)
			if err != nil {
				t.Fatal(err)
			}
			timg2, err := w.rec.TornImageAt(k, sec/2)
			if err != nil {
				t.Fatal(err)
			}
			tfd := copyToFileDisk(t, timg, filepath.Join(dir, fmt.Sprintf("crash%d.torn.img", k)))
			tfd2 := copyToFileDisk(t, timg2, filepath.Join(dir, fmt.Sprintf("crash%d.torn.full.img", k)))
			res.CrashPoints++
			res.TornPoints++
			for _, v := range w.verifyImage(&res, tfd, tfd2, k, true) {
				t.Errorf("file backend: %s", v)
			}
		}
	}
	t.Logf("file backend: %d crash points (%d torn): %d indexed opens, %d fallbacks, replay %d indexed / %d full",
		res.CrashPoints, res.TornPoints, res.IndexLoads, res.IndexFallbacks, res.ReplayIndexed, res.ReplayFull)
	if res.IndexLoads == 0 {
		t.Fatalf("no file-backend crash image recovered via the segment index")
	}
}

// fileEnv is a drive running on an Injector-wrapped FileDisk: the real
// file backend with the same injectable fault classes the simulated
// device offers.
type fileEnv struct {
	inj     *disk.Injector
	drv     *core.Drive
	opts    core.Options
	id      types.ObjectID
	payload []byte
	end     types.Timestamp
}

// fileDrive formats a drive on an Injector-wrapped FileDisk and runs a
// small workload through a Sync, so the env carries a payload the
// crash must not lose. The drive is deliberately never closed: the
// caller arms a fault, issues a doomed tail, and reopens as a crash.
func fileDrive(t *testing.T, path string) *fileEnv {
	t.Helper()
	fd, err := disk.OpenFile(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fd.Close() })
	inj := disk.NewInjector(fd)
	clk := vclock.NewVirtual()
	opts := core.Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 16,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	drv, err := core.Format(inj, opts)
	if err != nil {
		t.Fatal(err)
	}
	cred := types.Cred{User: 100, Client: 1}
	id, err := drv.Create(cred, everyoneACL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	payload := []byte("durable on the file backend")
	if err := drv.Write(cred, id, 0, payload); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if err := drv.Sync(cred); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	return &fileEnv{inj: inj, drv: drv, opts: opts, id: id, payload: payload, end: drv.Now()}
}

// crashTail issues post-sync traffic with a fault armed, swallowing
// errors — whatever the injector let through is the tail the crash
// leaves on the file — then disarms the injector for the reopen. The
// tail stays clear of block 0: only the one faulted write may be lost,
// later tail syncs are legitimately durable, so the oracle below can
// only claim the pre-fault payload at its own offset.
func (e *fileEnv) crashTail() {
	cred := types.Cred{User: 100, Client: 1}
	for i := 0; i < 8; i++ {
		_ = e.drv.Write(cred, e.id, uint64((i+1)*types.BlockSize), bytes.Repeat([]byte{byte(i + 1)}, 600))
		_ = e.drv.Sync(cred)
	}
	e.inj.ClearFaults()
}

// reopen simulates the post-crash restart on the same file.
func (e *fileEnv) reopen(t *testing.T) (*core.Drive, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reopen panicked: %v", r)
		}
	}()
	o := e.opts
	o.Clock = vclock.NewVirtualAt(e.end.Time())
	return core.Open(e.inj, o)
}

// checkSynced asserts the pre-fault synced payload survived recovery.
// The invariant sweep may report ErrCorrupt: the faulted tail writes
// were acknowledged to the log but never reached the media, and the
// block checksums are exactly what turns that silent lost write into a
// detected one. Any other invariant failure is still fatal.
func (e *fileEnv) checkSynced(t *testing.T, drv *core.Drive) {
	t.Helper()
	got, err := drv.Read(types.AdminCred(), e.id, 0, uint64(len(e.payload)), types.TimeNowest)
	if err != nil || !bytes.Equal(got, e.payload) {
		t.Fatalf("synced data lost: %q, %v", got, err)
	}
	if err := drv.CheckInvariants(); err != nil && !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestFileBackendFaultModel runs the fault-model suite on the file
// backend: torn and dropped write tails, bit rot, and hard device
// errors. Recovery must serve the synced prefix or refuse cleanly —
// never panic, never wedge — exactly as on the simulated device.
func TestFileBackendFaultModel(t *testing.T) {
	t.Run("torn tail", func(t *testing.T) {
		e := fileDrive(t, filepath.Join(t.TempDir(), "s4.img"))
		e.inj.TearAfter(1, 1)
		e.crashTail()
		drv, err := e.reopen(t)
		if err != nil {
			t.Fatalf("reopen after torn tail: %v", err)
		}
		e.checkSynced(t, drv)
	})

	t.Run("dropped tail", func(t *testing.T) {
		e := fileDrive(t, filepath.Join(t.TempDir(), "s4.img"))
		e.inj.DropAfter(1)
		e.crashTail()
		drv, err := e.reopen(t)
		if err != nil {
			t.Fatalf("reopen after dropped tail: %v", err)
		}
		e.checkSynced(t, drv)
	})

	t.Run("bit rot", func(t *testing.T) {
		e := fileDrive(t, filepath.Join(t.TempDir(), "s4.img"))
		for s := int64(3); s < 200; s += 13 {
			e.inj.RotSector(s, 0x20)
		}
		drv, err := e.reopen(t)
		if err != nil {
			return // clean refusal is acceptable for silent damage
		}
		_ = drv.CheckInvariants()
		// Rot is detected, never served: the synced payload reads back
		// byte-exact or the read fails — garbage is a contract violation.
		got, err := drv.Read(types.AdminCred(), e.id, 0, uint64(len(e.payload)), types.TimeNowest)
		if err == nil && !bytes.Equal(got, e.payload) {
			t.Fatalf("rotted drive served garbage: %q, want %q or an error", got, e.payload)
		}
	})

	t.Run("hard error", func(t *testing.T) {
		e := fileDrive(t, filepath.Join(t.TempDir(), "s4.img"))
		errBoom := errors.New("boom")
		e.inj.FailAfter(0, errBoom)
		if _, err := e.reopen(t); err == nil {
			t.Fatal("open succeeded with a failing device")
		} else if !errors.Is(err, errBoom) {
			t.Fatalf("open error %v does not wrap the device error", err)
		}
	})
}
