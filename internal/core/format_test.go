package core

import (
	"errors"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// TestFormatOverUsedImage formats a device that holds a log. The image
// is what a crash leaves of 50 synced objects: sealed segments, and an
// open one whose partial-flush snapshots sit in its pad slots. Format
// used to rewrite the superblock and the checkpoint slots and nothing
// else, so the Open at its end rolled the whole old log forward and the
// "new" drive came up with the 50 objects back.
//
// The second half is the part a block-0-only wipe gets wrong: the new
// log numbers its flushes from 1 again, so once it reopens a segment of
// the old log, a stale snapshot further into that segment outranks its
// own. A crash of the reformatted drive must recover what it acked and
// nothing else.
func TestFormatOverUsedImage(t *testing.T) {
	backends := map[string]func(t *testing.T, clk vclock.Clock) disk.Device{
		"memory": func(_ *testing.T, clk vclock.Clock) disk.Device { return disk.New(disk.SmallDisk(16<<20), clk) },
		"file": func(t *testing.T, _ vclock.Clock) disk.Device {
			fd, err := disk.OpenFile(t.TempDir()+"/used.img", 4<<20) // preallocated: keep it small
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fd.Close() })
			return fd
		},
	}
	for name, newDev := range backends {
		t.Run(name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			opts := Options{Clock: clk, SegBlocks: 16, CheckpointBlocks: 64, Window: time.Hour}
			format := func(dev disk.Device) *testEnv {
				d, err := Format(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				return &testEnv{t: t, d: d, clk: clk}
			}
			blank := format(newDev(t, clk))
			want := blank.d.StateDigest()

			dev := newDev(t, clk)
			used := format(dev)
			ids := make([]types.ObjectID, 50)
			for i := range ids {
				ids[i] = used.create(alice)
				used.write(alice, ids[i], 0, blockPattern(i))
				if err := used.d.Sync(alice); err != nil {
					t.Fatal(err)
				}
				used.tick()
			}
			// Abandoned, not closed: dev holds what a crash leaves.

			fresh := format(dev)
			if got := fresh.d.StateDigest(); got != want {
				t.Fatalf("a drive formatted over a used image differs from one formatted on a blank device:\n%s\nwant:\n%s", got, want)
			}
			for _, id := range ids {
				if _, err := fresh.d.GetAttr(alice, id, 0); !errors.Is(err, types.ErrNoObject) {
					t.Fatalf("object %v of the old log after Format: err %v, want ErrNoObject", id, err)
				}
			}
			if err := fresh.d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			id := fresh.create(alice)
			fresh.write(alice, id, 0, blockPattern(999))
			if err := fresh.d.Sync(alice); err != nil {
				t.Fatal(err)
			}
			at := fresh.d.Now()
			re, err := Open(dev, opts)
			if err != nil {
				t.Fatalf("open of the reformatted drive's crash image: %v", err)
			}
			t.Cleanup(func() { _ = re.Close() })
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got, err := re.Read(alice, id, 0, types.BlockSize, at); err != nil || string(got) != string(blockPattern(999)) {
				t.Fatalf("the reformatted drive's synced write after its crash: %d bytes, err %v", len(got), err)
			}
			if next := re.Status().NextOID; next != id+1 {
				t.Fatalf("NextOID %v after the reopen, want %v: objects of the old log are back", next, id+1)
			}
		})
	}
}
