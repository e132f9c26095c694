package s4fs

import (
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/fsys"
	"s4/internal/types"
	"s4/internal/vclock"
)

// TestConformanceOverFaultDisk runs the shared fsys contract against
// s4fs built on the torture harness's device (a disk.Disk with no
// clock) with all faults disarmed. The fault layer must be a transparent pass-through:
// any conformance divergence here but not in TestConformance means the
// fault device itself distorts I/O, which would invalidate every
// crash-consistency result derived from it.
func TestConformanceOverFaultDisk(t *testing.T) {
	fsys.RunConformance(t, func(t *testing.T) fsys.FileSys {
		clk := vclock.NewVirtual()
		dev := disk.New(disk.SmallDisk(128<<20), nil)
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
		return fs
	})
}
