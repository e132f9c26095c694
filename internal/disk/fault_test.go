package disk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"s4/internal/types"
	"s4/internal/vclock"
)

func sect(b byte) []byte { return bytes.Repeat([]byte{b}, SectorSize) }

func readSector(t *testing.T, d Device, sector int64) []byte {
	t.Helper()
	buf := make([]byte, SectorSize)
	if err := d.ReadSectors(sector, buf); err != nil {
		t.Fatalf("read sector %d: %v", sector, err)
	}
	return buf
}

func TestFaultDiskBasicReadWrite(t *testing.T) {
	f := New(SmallDisk(1<<20), nil)
	if f.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", f.Capacity())
	}
	if err := f.WriteSectors(3, sect(0xAB)); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, f, 3); !bytes.Equal(got, sect(0xAB)) {
		t.Fatal("readback mismatch")
	}
	// Unwritten sectors read as zeros.
	if got := readSector(t, f, 4); !bytes.Equal(got, sect(0)) {
		t.Fatal("unwritten sector not zero")
	}
	// Out-of-range requests are rejected.
	if err := f.WriteSectors(f.Capacity()/SectorSize, sect(1)); !errors.Is(err, types.ErrInval) {
		t.Fatalf("out-of-range write: %v", err)
	}
	if err := f.ReadSectors(0, make([]byte, 100)); !errors.Is(err, types.ErrInval) {
		t.Fatalf("unaligned read: %v", err)
	}
}

func TestFaultDiskImageAt(t *testing.T) {
	f := New(SmallDisk(1<<20), nil)
	if err := f.WriteSectors(0, sect(0x01)); err != nil {
		t.Fatal(err)
	}
	f.StartRecording()
	for i := byte(0); i < 10; i++ {
		if err := f.WriteSectors(int64(i), sect(0x10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Writes() != 10 {
		t.Fatalf("recorded %d writes", f.Writes())
	}
	// Image at 0 is the pre-recording base: sector 0 has the old value.
	img0, err := f.ImageAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, img0, 0); !bytes.Equal(got, sect(0x01)) {
		t.Fatal("image 0 lost base contents")
	}
	// Image at k holds exactly the first k writes.
	img5, err := f.ImageAt(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if got := readSector(t, img5, int64(i)); !bytes.Equal(got, sect(0x10+i)) {
			t.Fatalf("image 5 sector %d wrong", i)
		}
	}
	if got := readSector(t, img5, 5); !bytes.Equal(got, sect(0)) {
		t.Fatal("image 5 leaked write 5")
	}
	// Images are isolated: writing an image touches neither the recorder
	// nor previously returned images.
	if err := img5.WriteSectors(0, sect(0xFF)); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, f, 0); !bytes.Equal(got, sect(0x10)) {
		t.Fatal("image write leaked into recorder")
	}
	if got := readSector(t, img0, 0); !bytes.Equal(got, sect(0x01)) {
		t.Fatal("image write leaked into sibling image")
	}
	// Going backwards replays from the base.
	img2, err := f.ImageAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, img2, 2); !bytes.Equal(got, sect(0)) {
		t.Fatal("backward image leaked later write")
	}
	if _, err := f.ImageAt(11); !errors.Is(err, types.ErrInval) {
		t.Fatalf("out-of-range crash point: %v", err)
	}
}

func TestFaultDiskTornImage(t *testing.T) {
	f := New(SmallDisk(1<<20), nil)
	f.StartRecording()
	big := append(append([]byte(nil), sect(0xAA)...), sect(0xBB)...)
	if err := f.WriteSectors(10, big); err != nil {
		t.Fatal(err)
	}
	img, err := f.TornImageAt(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, img, 10); !bytes.Equal(got, sect(0xAA)) {
		t.Fatal("torn image lost persisted prefix")
	}
	if got := readSector(t, img, 11); !bytes.Equal(got, sect(0)) {
		t.Fatal("torn image persisted past the tear")
	}
	// The full image still has both sectors.
	full, err := f.ImageAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, full, 11); !bytes.Equal(got, sect(0xBB)) {
		t.Fatal("full image lost data")
	}
}

func TestFaultDiskInjectedFaults(t *testing.T) {
	f := New(SmallDisk(1<<20), nil)
	f.StartRecording()

	// Dropped write: acknowledged, not persisted, journaled as empty.
	f.DropAfter(0)
	if err := f.WriteSectors(0, sect(0x11)); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, f, 0); !bytes.Equal(got, sect(0)) {
		t.Fatal("dropped write reached media")
	}
	if r := f.Record(0); r.Sectors() != 0 {
		t.Fatalf("dropped write journaled %d sectors", r.Sectors())
	}

	// Torn write: only the prefix persists.
	f.TearAfter(0, 1)
	big := append(append([]byte(nil), sect(0x22)...), sect(0x33)...)
	if err := f.WriteSectors(4, big); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, f, 4); !bytes.Equal(got, sect(0x22)) {
		t.Fatal("torn write lost prefix")
	}
	if got := readSector(t, f, 5); !bytes.Equal(got, sect(0)) {
		t.Fatal("torn write persisted past the tear")
	}
	if r := f.Record(1); r.Sectors() != 1 {
		t.Fatalf("torn write journaled %d sectors", r.Sectors())
	}

	// Bit-rot: reads see flipped bits until cleared; media is untouched.
	if err := f.WriteSectors(8, sect(0x0F)); err != nil {
		t.Fatal(err)
	}
	f.RotSector(8, 0xF0)
	if got := readSector(t, f, 8); !bytes.Equal(got, sect(0xFF)) {
		t.Fatal("bit-rot not applied on read")
	}
	f.ClearFaults()
	if got := readSector(t, f, 8); !bytes.Equal(got, sect(0x0F)) {
		t.Fatal("bit-rot persisted after ClearFaults")
	}

	// Hard error, one-shot like Disk.FailAfter.
	f.FailAfter(0, types.ErrCorrupt)
	if err := f.ReadSectors(0, make([]byte, SectorSize)); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("injected error: %v", err)
	}
	if err := f.ReadSectors(0, make([]byte, SectorSize)); err != nil {
		t.Fatalf("fault not one-shot: %v", err)
	}
}

// timedWrites runs the same scattered writes on a timed Disk and returns
// the virtual time they took. recording journals them; tear tears the
// first one to a single sector.
func timedWrites(t *testing.T, recording, tear bool) (*Disk, time.Duration) {
	t.Helper()
	clk := vclock.NewVirtual()
	d := New(testGeo(), clk)
	if recording {
		d.StartRecording()
	}
	if tear {
		d.TearAfter(0, 1)
	}
	start := clk.Now()
	for i, sector := range []int64{4000, 16, 24, 9000, 9008, 300} {
		if err := d.WriteSectors(sector, bytes.Repeat(sect(byte(i+1)), 8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().BusyTime; got != clk.Now().Sub(start) {
		t.Fatalf("busy time %v, clock moved %v", got, clk.Now().Sub(start))
	}
	return d, clk.Now().Sub(start)
}

// TestRecordingChargesSameTime: journaling writes is free in virtual
// time, so a Disk under test costs what the benchmark's Disk costs.
func TestRecordingChargesSameTime(t *testing.T) {
	rec, withRec := timedWrites(t, true, false)
	_, without := timedWrites(t, false, false)
	if withRec <= 0 || withRec != without {
		t.Fatalf("recording Disk took %v, plain Disk %v", withRec, without)
	}
	if rec.Writes() != 6 {
		t.Fatalf("recorded %d writes, want 6", rec.Writes())
	}
}

// TestTornWriteChargesWholeRequest: a torn write persists a prefix but
// occupies the device for the whole request, as WriteSectors says.
func TestTornWriteChargesWholeRequest(t *testing.T) {
	torn, tornT := timedWrites(t, true, true)
	_, wholeT := timedWrites(t, true, false)
	if tornT != wholeT {
		t.Fatalf("torn run took %v, untorn run %v", tornT, wholeT)
	}
	if r := torn.Record(0); r.Sectors() != 1 {
		t.Fatalf("torn write persisted %d sectors, want 1", r.Sectors())
	}
	if got := readSector(t, torn, 4001); !bytes.Equal(got, sect(0)) {
		t.Fatal("torn write persisted past the tear")
	}
}

// TestImageIsBare: a crash image of a timed, armed, recording Disk has
// no clock, no armed faults and no recording of its own, and using it
// disturbs neither the recorder's clock nor its faults.
func TestImageIsBare(t *testing.T) {
	clk := vclock.NewVirtual()
	d := New(testGeo(), clk)
	d.StartRecording()
	if err := d.WriteSectors(7, sect(0x5A)); err != nil {
		t.Fatal(err)
	}
	d.RotSector(7, 0xFF)
	d.DropAfter(0)
	d.FailAfter(0, types.ErrCorrupt)
	img, err := d.ImageAt(1)
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Now()

	// No armed faults: the read succeeds unrotted, the write lands.
	if got := readSector(t, img, 7); !bytes.Equal(got, sect(0x5A)) {
		t.Fatal("image read failed over or saw the recorder's rot")
	}
	if err := img.WriteSectors(100, sect(0x66)); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, img, 100); !bytes.Equal(got, sect(0x66)) {
		t.Fatal("image write was dropped")
	}
	// No clock: its I/O charges nothing, here or on the recorder's clock.
	if s := img.Stats(); s.Writes != 1 || s.Reads != 2 || s.BusyTime != 0 {
		t.Fatalf("image stats %+v, want 1 write, 2 reads, no busy time", s)
	}
	if !clk.Now().Equal(before) {
		t.Fatal("image I/O advanced the recorder's clock")
	}
	// No recording.
	if img.Writes() != 0 {
		t.Fatalf("image journaled %d writes", img.Writes())
	}
	if _, err := img.ImageAt(0); !errors.Is(err, types.ErrInval) {
		t.Fatalf("ImageAt on an image: %v", err)
	}
	// The recorder's faults are still armed.
	if err := d.ReadSectors(7, make([]byte, SectorSize)); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("recorder lost its armed fault: %v", err)
	}
}
