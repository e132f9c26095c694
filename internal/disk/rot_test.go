package disk

import (
	"bytes"
	"testing"
)

// rotDevice is the fault surface every device of this package embeds;
// the parity tests below run the same scenarios over a fresh Disk, a
// crash image of one and an Injector, so the rot contract cannot drift
// between them.
type rotDevice interface {
	Device
	RotSector(sector int64, mask byte)
	RotSectorOnce(sector int64, mask byte)
	ClearFaults()
}

func rotWrappers(t *testing.T) map[string]rotDevice {
	t.Helper()
	fd, err := OpenFile(t.TempDir()+"/rot.img", 1<<20)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { fd.Close() })
	rec := New(SmallDisk(1<<20), nil)
	rec.StartRecording()
	img, err := rec.ImageAt(0)
	if err != nil {
		t.Fatalf("ImageAt: %v", err)
	}
	return map[string]rotDevice{
		"Disk":      New(SmallDisk(1<<20), nil),
		"DiskImage": img,
		"Injector":  NewInjector(fd),
	}
}

func rotWriteSector(t *testing.T, d Device, sector int64, fill byte) []byte {
	t.Helper()
	buf := bytes.Repeat([]byte{fill}, SectorSize)
	if err := d.WriteSectors(sector, buf); err != nil {
		t.Fatalf("WriteSectors(%d): %v", sector, err)
	}
	return buf
}

func rotReadSector(t *testing.T, d Device, sector int64) []byte {
	t.Helper()
	buf := make([]byte, SectorSize)
	if err := d.ReadSectors(sector, buf); err != nil {
		t.Fatalf("ReadSectors(%d): %v", sector, err)
	}
	return buf
}

// TestRotParity runs identical rot scenarios over a Disk, a crash image
// and an Injector: persistent rot corrupts every read until overwritten or
// disarmed; one-shot rot corrupts exactly one read; ClearFaults drops
// both.
func TestRotParity(t *testing.T) {
	for name, d := range rotWrappers(t) {
		t.Run(name, func(t *testing.T) {
			want := rotWriteSector(t, d, 5, 0xAB)

			// Persistent: corrupt on every read.
			d.RotSector(5, 0x01)
			for i := 0; i < 3; i++ {
				if got := rotReadSector(t, d, 5); bytes.Equal(got, want) {
					t.Fatalf("read %d: persistent rot not applied", i)
				}
			}
			// Zero mask disarms.
			d.RotSector(5, 0)
			if got := rotReadSector(t, d, 5); !bytes.Equal(got, want) {
				t.Fatal("zero-mask disarm did not clear persistent rot")
			}

			// Overwrite repairs persistent rot.
			d.RotSector(5, 0x01)
			want = rotWriteSector(t, d, 5, 0xCD)
			if got := rotReadSector(t, d, 5); !bytes.Equal(got, want) {
				t.Fatal("overwrite did not clear persistent rot")
			}

			// One-shot: exactly the next read sees it.
			d.RotSectorOnce(5, 0x02)
			if got := rotReadSector(t, d, 5); bytes.Equal(got, want) {
				t.Fatal("one-shot rot not applied on first read")
			}
			if got := rotReadSector(t, d, 5); !bytes.Equal(got, want) {
				t.Fatal("one-shot rot survived its first read")
			}

			// One-shot clears on overwrite without being read.
			d.RotSectorOnce(5, 0x04)
			want = rotWriteSector(t, d, 5, 0xEF)
			if got := rotReadSector(t, d, 5); !bytes.Equal(got, want) {
				t.Fatal("overwrite did not clear one-shot rot")
			}

			// A multi-sector read corrupts only the armed sector.
			w6 := rotWriteSector(t, d, 6, 0x11)
			d.RotSector(6, 0x80)
			big := make([]byte, 2*SectorSize)
			if err := d.ReadSectors(5, big); err != nil {
				t.Fatalf("ReadSectors run: %v", err)
			}
			if !bytes.Equal(big[:SectorSize], want) {
				t.Fatal("rot on sector 6 leaked into sector 5")
			}
			if bytes.Equal(big[SectorSize:], w6) {
				t.Fatal("rot on sector 6 not applied within a run")
			}

			// ClearFaults disarms both modes.
			d.RotSectorOnce(5, 0x08)
			d.ClearFaults()
			if got := rotReadSector(t, d, 5); !bytes.Equal(got, want) {
				t.Fatal("ClearFaults left one-shot rot armed")
			}
			if got := rotReadSector(t, d, 6); !bytes.Equal(got, w6) {
				t.Fatal("ClearFaults left persistent rot armed")
			}
		})
	}
}

// TestRotDroppedWriteDoesNotRepair pins the interaction between rot and
// the write fault classes: a dropped write never persisted anything, so
// it must not clear rot; a torn write clears rot only under its kept
// prefix.
func TestRotDroppedWriteDoesNotRepair(t *testing.T) {
	type faulter interface {
		rotDevice
		DropAfter(n int64)
		TearAfter(n int64, keepSectors int)
	}
	for name, rd := range rotWrappers(t) {
		t.Run(name, func(t *testing.T) {
			d := rd.(faulter)
			rotWriteSector(t, d, 3, 0x55)
			clean4 := rotWriteSector(t, d, 4, 0x66)

			d.RotSector(3, 0x01)
			d.DropAfter(0)
			rotWriteSector(t, d, 3, 0x77) // dropped: media still 0x55, still rotting
			if got := rotReadSector(t, d, 3); got[0] == 0x55 || got[0] == 0x77 {
				t.Fatalf("dropped write cleared rot: read %#02x", got[0])
			}

			d.ClearFaults()
			d.RotSector(3, 0x01)
			d.RotSector(4, 0x01)
			d.TearAfter(0, 1)
			two := bytes.Repeat([]byte{0x99}, 2*SectorSize)
			if err := d.WriteSectors(3, two); err != nil {
				t.Fatalf("torn WriteSectors: %v", err)
			}
			// Kept prefix (sector 3) persisted fresh bytes: rot cleared.
			if got := rotReadSector(t, d, 3); got[0] != 0x99 {
				t.Fatalf("torn write's kept prefix still rotting: %#02x", got[0])
			}
			// Torn-off tail (sector 4) never landed: rot persists.
			if got := rotReadSector(t, d, 4); bytes.Equal(got, clean4) || got[0] == 0x99 {
				t.Fatalf("torn write's lost tail cleared rot: %#02x", got[0])
			}
		})
	}
}
