package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"s4/internal/vclock"
)

func testGeo() Geometry {
	g := Cheetah9()
	g.NumSectors = 1 << 16 // 32MB test device
	return g
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(testGeo(), nil)
	buf := make([]byte, 3*SectorSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := d.WriteSectors(100, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := d.ReadSectors(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	d := New(testGeo(), nil)
	got := make([]byte, 2*SectorSize)
	for i := range got {
		got[i] = 0xFF
	}
	if err := d.ReadSectors(500, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestChunkStraddlingWrites(t *testing.T) {
	d := New(testGeo(), nil)
	// Write a buffer that crosses several sparse chunks at an offset.
	start := int64(chunkSectors - 3)
	buf := make([]byte, 3*chunkSectors*SectorSize)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(buf)
	if err := d.WriteSectors(start, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := d.ReadSectors(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("chunk-straddling round trip mismatch")
	}
}

func TestRangeChecks(t *testing.T) {
	d := New(testGeo(), nil)
	buf := make([]byte, SectorSize)
	if err := d.WriteSectors(-1, buf); err == nil {
		t.Fatal("negative sector accepted")
	}
	if err := d.WriteSectors(d.Geometry().NumSectors, buf); err == nil {
		t.Fatal("past-end write accepted")
	}
	if err := d.ReadSectors(0, make([]byte, SectorSize-1)); err == nil {
		t.Fatal("non-sector-multiple accepted")
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	mkrun := func(seq bool) time.Duration {
		clk := vclock.NewVirtual()
		d := New(testGeo(), clk)
		start := clk.Now()
		buf := make([]byte, 8*SectorSize)
		rnd := rand.New(rand.NewSource(2))
		pos := int64(0)
		for i := 0; i < 200; i++ {
			if !seq {
				pos = rnd.Int63n(d.Geometry().NumSectors - 8)
			}
			if err := d.WriteSectors(pos, buf); err != nil {
				t.Fatal(err)
			}
			if seq {
				pos += 8
			}
		}
		return clk.Now().Sub(start)
	}
	seqT, rndT := mkrun(true), mkrun(false)
	if seqT*3 >= rndT {
		t.Fatalf("sequential (%v) should be much faster than random (%v)", seqT, rndT)
	}
}

func TestLargeWritesAmortize(t *testing.T) {
	// Writing the same bytes in one large request must be faster than
	// many scattered small requests.
	total := 512 * SectorSize
	one := func() time.Duration {
		clk := vclock.NewVirtual()
		d := New(testGeo(), clk)
		start := clk.Now()
		if err := d.WriteSectors(0, make([]byte, total)); err != nil {
			t.Fatal(err)
		}
		return clk.Now().Sub(start)
	}()
	many := func() time.Duration {
		clk := vclock.NewVirtual()
		d := New(testGeo(), clk)
		start := clk.Now()
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < 512; i++ {
			pos := rnd.Int63n(d.Geometry().NumSectors - 1)
			if err := d.WriteSectors(pos, make([]byte, SectorSize)); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now().Sub(start)
	}()
	if one*10 >= many {
		t.Fatalf("one big write (%v) should be >>10x faster than 512 random writes (%v)", one, many)
	}
}

func TestStats(t *testing.T) {
	clk := vclock.NewVirtual()
	d := New(testGeo(), clk)
	buf := make([]byte, 4*SectorSize)
	if err := d.WriteSectors(10, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(10, buf); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.SectorsWrite != 4 || s.SectorsRead != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime <= 0 {
		t.Fatal("busy time must accumulate")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestSequentialReadAfterWriteNoSeek(t *testing.T) {
	clk := vclock.NewVirtual()
	d := New(testGeo(), clk)
	if err := d.WriteSectors(10, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	// Head is now at sector 11; a read there is sequential.
	if err := d.ReadSectors(11, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.SeekCount != 1 {
		t.Fatalf("seek count = %d, want 1 (only the initial write seeks)", s.SeekCount)
	}
}

func TestFaultInjection(t *testing.T) {
	d := New(testGeo(), nil)
	boom := errors.New("boom")
	d.FailAfter(1, boom)
	buf := make([]byte, SectorSize)
	if err := d.WriteSectors(0, buf); err != nil {
		t.Fatalf("first I/O should succeed: %v", err)
	}
	if err := d.WriteSectors(0, buf); !errors.Is(err, boom) {
		t.Fatalf("second I/O should fail with boom, got %v", err)
	}
	if err := d.WriteSectors(0, buf); err != nil {
		t.Fatalf("fault must be one-shot: %v", err)
	}
}

func TestSparseAllocation(t *testing.T) {
	d := New(Cheetah9(), nil) // 9GB logical
	if err := d.WriteSectors(0, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	if got := d.AllocatedBytes(); got > 1<<20 {
		t.Fatalf("sparse disk materialized %d bytes for one sector", got)
	}
}

func TestSeekCurveMonotonic(t *testing.T) {
	d := New(testGeo(), vclock.NewVirtual())
	prev := time.Duration(0)
	for cyls := int64(1); cyls < 100; cyls *= 2 {
		st := d.seekTime(cyls)
		if st < prev {
			t.Fatalf("seek time not monotonic at %d cylinders", cyls)
		}
		prev = st
	}
	if d.seekTime(0) != 0 {
		t.Fatal("zero-cylinder seek must be free")
	}
	if d.seekTime(1) < d.Geometry().TrackToTrack {
		t.Fatal("one-cylinder seek must cost at least track-to-track")
	}
}

func TestPropertyWriteReadAnywhere(t *testing.T) {
	d := New(testGeo(), nil)
	f := func(sector uint16, pattern byte, nsecRaw uint8) bool {
		nsec := int64(nsecRaw%8) + 1
		sec := int64(sector) % (d.Geometry().NumSectors - nsec)
		buf := bytes.Repeat([]byte{pattern}, int(nsec)*SectorSize)
		if err := d.WriteSectors(sec, buf); err != nil {
			return false
		}
		got := make([]byte, len(buf))
		if err := d.ReadSectors(sec, got); err != nil {
			return false
		}
		return bytes.Equal(buf, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReadUnwritten times a 256 KB read of space no write ever
// touched — what a recovery scan of a mostly empty device is made of. The
// store has no chunk there and zero-fills the buffer; with clear() that is
// a memclr (~6 µs here); as a byte-indexed loop it was ~60 µs.
func BenchmarkReadUnwritten(b *testing.B) {
	d := New(SmallDisk(64<<20), nil)
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadSectors(int64(i%128)*512, buf); err != nil {
			b.Fatal(err)
		}
	}
}
