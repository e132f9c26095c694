package s4fs

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/fsys"
	"s4/internal/types"
	"s4/internal/vclock"
)

func newFS(t *testing.T) (*FS, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual()
	dev := disk.New(disk.SmallDisk(128<<20), clk)
	drv, err := core.Format(dev, core.Options{
		Clock: clk, SegBlocks: 32, CheckpointBlocks: 64,
		Window: time.Hour, BlockCacheBytes: 8 << 20, ObjectCacheCount: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = drv.Close() })
	fs, err := Mkfs(drv, Options{
		Cred:       types.Cred{User: 1000, Client: 1},
		SyncEachOp: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, clk
}

func TestConformance(t *testing.T) {
	fsys.RunConformance(t, func(t *testing.T) fsys.FileSys {
		fs, _ := newFS(t)
		return fs
	})
}

func TestMountExisting(t *testing.T) {
	fs, _ := newFS(t)
	h, _, err := fs.Create(fs.Root(), "persist", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(h, 0, []byte("mounted")); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Drive(), fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := fs2.Lookup(fs2.Root(), "persist")
	if err != nil || h2 != h {
		t.Fatal(h2, err)
	}
	got, err := fs2.Read(h2, 0, 16)
	if err != nil || string(got) != "mounted" {
		t.Fatal(got, err)
	}
}

func TestTimeTravelView(t *testing.T) {
	fs, clk := newFS(t)
	h, _, err := fs.Create(fs.Root(), "syslog", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(h, 0, []byte("intruder logged in from evil.example\n")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	tBefore := types.TS(clk.Now())
	clk.Advance(time.Second)

	// The intruder scrubs the log and removes a second file.
	if err := fs.Write(h, 0, bytes.Repeat([]byte{' '}, 37)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create(fs.Root(), "exploit.sh", 0755); err != nil {
		t.Fatal(err)
	}
	eh, _, _ := fs.Lookup(fs.Root(), "exploit.sh")
	if err := fs.Write(eh, 0, []byte("#!/bin/sh\n# payload")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	tDuring := types.TS(clk.Now())
	clk.Advance(time.Second)
	if err := fs.Remove(fs.Root(), "exploit.sh"); err != nil {
		t.Fatal(err)
	}

	// Administrator views: before the intrusion the log is intact.
	adminFS := fs.WithCred(types.AdminCred())
	past := adminFS.AtTime(tBefore)
	ph, _, err := past.Lookup(past.Root(), "syslog")
	if err != nil {
		t.Fatal(err)
	}
	got, err := past.Read(ph, 0, 64)
	if err != nil || !bytes.Contains(got, []byte("evil.example")) {
		t.Fatalf("pre-intrusion log = %q err=%v", got, err)
	}
	// The deleted exploit tool is recoverable from the during-intrusion
	// view (§3.1: exploit tools can be recovered).
	during := adminFS.AtTime(tDuring)
	xh, _, err := during.Lookup(during.Root(), "exploit.sh")
	if err != nil {
		t.Fatal(err)
	}
	tool, err := during.Read(xh, 0, 64)
	if err != nil || !bytes.Contains(tool, []byte("payload")) {
		t.Fatalf("exploit tool = %q err=%v", tool, err)
	}
	// In the current view it is gone.
	if _, _, err := fs.Lookup(fs.Root(), "exploit.sh"); !errors.Is(err, fsys.ErrNotFound) {
		t.Fatalf("exploit in current view: %v", err)
	}
	// Historical views reject mutation.
	if _, _, err := past.Create(past.Root(), "x", 0644); !errors.Is(err, fsys.ErrPerm) {
		t.Fatalf("mutation on view: %v", err)
	}
	if err := past.Write(ph, 0, []byte("x")); !errors.Is(err, fsys.ErrPerm) {
		t.Fatalf("write on view: %v", err)
	}
}

func TestDirCacheSurvivesChurn(t *testing.T) {
	fs, _ := newFS(t)
	d, _, err := fs.Mkdir(fs.Root(), "churn", 0755)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave creates and removes; the cache's slots and free slots
	// must stay coherent with the zero records and shrinks on the drive.
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			name := string(rune('a'+round)) + string(rune('0'+i%10)) + string(rune('0'+i/10))
			if _, _, err := fs.Create(d, name, 0644); err != nil {
				t.Fatalf("round %d create %s: %v", round, name, err)
			}
		}
		ents, err := fs.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ents {
			if i%2 == 0 {
				if err := fs.Remove(d, e.Name); err != nil {
					t.Fatalf("remove %s: %v", e.Name, err)
				}
			}
		}
	}
	// Fresh mount (cold cache) must agree with the cached view.
	fs2, err := Mount(fs.Drive(), fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := fs2.Lookup(fs2.Root(), "churn")
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := fs.ReadDir(d)
	cold, _ := fs2.ReadDir(d2)
	if len(warm) != len(cold) {
		t.Fatalf("cache divergence: warm=%d cold=%d", len(warm), len(cold))
	}
	coldSet := map[string]bool{}
	for _, e := range cold {
		coldSet[e.Name] = true
	}
	for _, e := range warm {
		if !coldSet[e.Name] {
			t.Fatalf("entry %q in cache but not on disk", e.Name)
		}
	}
}

func TestNameTooLong(t *testing.T) {
	fs, _ := newFS(t)
	long := string(bytes.Repeat([]byte{'n'}, maxNameLen+1))
	if _, _, err := fs.Create(fs.Root(), long, 0644); !errors.Is(err, types.ErrNameTooLong) {
		t.Fatalf("long name: %v", err)
	}
	// A rename or a link to a long name fails too, and the file keeps
	// its name: a record cannot hold the long one.
	h, _, err := fs.Create(fs.Root(), "short", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "short", fs.Root(), long); !errors.Is(err, types.ErrNameTooLong) {
		t.Fatalf("rename to a long name: %v", err)
	}
	if err := fs.Link(h, fs.Root(), long); !errors.Is(err, types.ErrNameTooLong) {
		t.Fatalf("link to a long name: %v", err)
	}
	if got, _, err := fs.Lookup(fs.Root(), "short"); err != nil || got != h {
		t.Fatalf("short after failed renames: %v %v", got, err)
	}
}

// TestConformanceFileBackend runs the same conformance battery with
// the drive on a real preallocated file in a tempdir, so the
// filesystem layer's contract holds on the backend production runs on
// (DESIGN.md §14.3), not just the simulated device.
func TestConformanceFileBackend(t *testing.T) {
	fsys.RunConformance(t, func(t *testing.T) fsys.FileSys {
		dev, err := disk.OpenFile(filepath.Join(t.TempDir(), "s4fs.img"), 128<<20)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dev.Close() })
		drv, err := core.Format(dev, core.Options{
			Clock: vclock.NewVirtual(), SegBlocks: 32, CheckpointBlocks: 64,
			Window: time.Hour, BlockCacheBytes: 8 << 20, ObjectCacheCount: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = drv.Close() })
		fs, err := Mkfs(drv, Options{
			Cred:       types.Cred{User: 1000, Client: 1},
			SyncEachOp: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
}
