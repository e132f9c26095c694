// Package disk provides the sector-addressed storage device under every
// file system in this repository.
//
// The paper's evaluation ran on a 9GB 10,000RPM Seagate Cheetah behind
// an Ultra2 SCSI controller. We substitute a simulated disk: a sparse
// in-memory sector store plus a mechanical service-time model (seek
// curve, rotational latency, sustained transfer rate). Each request
// advances a vclock by its modeled service time, so benchmarks measure
// deterministic virtual time while data access itself is just memory
// copies. The model captures the effects the paper's figures depend on:
// big sequential segment writes are cheap, scattered small synchronous
// writes are expensive, and cleaner I/O steals device time from
// foreground work.
//
// The package holds one memory device (Disk, which can also record its
// writes and hand out crash images; see fault.go), one file device
// (FileDisk), one fault decorator for devices that are not memory
// (Injector) and one fault state that Disk and Injector embed
// (faults.go).
package disk

import (
	"fmt"
	"math"
	"time"

	"s4/internal/types"
	"s4/internal/vclock"
)

// SectorSize is the unit of addressing and transfer.
const SectorSize = 512

// Geometry describes the mechanical characteristics used by the
// service-time model.
type Geometry struct {
	// NumSectors is the device capacity in sectors.
	NumSectors int64
	// SectorsPerTrack approximates the track length, used to decide
	// when a transfer crosses tracks and to convert sector distance
	// into cylinder distance for the seek curve.
	SectorsPerTrack int64
	// RPM is the spindle speed; rotational latency is half a revolution.
	RPM int
	// TrackToTrack, AvgSeek, FullStroke define the seek curve endpoints.
	TrackToTrack time.Duration
	AvgSeek      time.Duration
	FullStroke   time.Duration
	// TransferRate is the sustained media rate in bytes/second.
	TransferRate int64
}

// Cheetah9 approximates the 9GB 10,000RPM Seagate Cheetah used in the
// paper's testbed.
func Cheetah9() Geometry {
	return Geometry{
		NumSectors:      9 * 1000 * 1000 * 1000 / SectorSize,
		SectorsPerTrack: 300,
		RPM:             10000,
		TrackToTrack:    600 * time.Microsecond,
		AvgSeek:         5200 * time.Microsecond,
		FullStroke:      10500 * time.Microsecond,
		TransferRate:    24 << 20,
	}
}

// SmallDisk returns Cheetah-like mechanics scaled to the given capacity.
// Experiments that sweep space utilization (Fig. 5) use a small device
// so the sweep stays laptop-sized; mechanics per request are unchanged.
func SmallDisk(capacity int64) Geometry {
	g := Cheetah9()
	g.NumSectors = capacity / SectorSize
	return g
}

// Stats counts device activity. Reads are snapshots; use the Stats
// method for a consistent copy.
type Stats struct {
	Reads        int64
	Writes       int64
	SectorsRead  int64
	SectorsWrite int64
	SeekCount    int64 // requests that required a seek (non-sequential)
	BusyTime     time.Duration
}

// Device is the interface file systems build on.
type Device interface {
	// ReadSectors fills buf (a multiple of SectorSize) starting at the
	// given sector.
	ReadSectors(sector int64, buf []byte) error
	// WriteSectors writes buf (a multiple of SectorSize) starting at
	// the given sector.
	WriteSectors(sector int64, buf []byte) error
	// Capacity returns the device size in bytes.
	Capacity() int64
}

// Syncer is implemented by devices whose writes may linger in an OS or
// hardware cache (the file backend). Callers that need a durability
// barrier — the seglog's Sync and checkpoint paths — type-assert for it
// and call Sync; write-through devices (the simulated Disk) simply
// don't implement it.
type Syncer interface {
	Sync() error
}

// Disk is the simulated device. It is safe for concurrent use; requests
// serialize on the device, as they would on a real spindle.
type Disk struct {
	geo   Geometry
	clock vclock.Clock

	faults            // its mu also guards the fields below
	store   *cowStore // sparse backing, shared copy-on-write with images
	rec     recorder  // the write journal crash images replay (fault.go)
	headPos int64     // sector under the head after last request
	stats   Stats
	freeIO  bool // service time not charged (idle-time activity)
}

// New creates a simulated disk with the given geometry, advancing clk by
// each request's modeled service time. A nil clock disables the timing
// model (pure memory store).
func New(geo Geometry, clk vclock.Clock) *Disk {
	if geo.NumSectors <= 0 {
		panic("disk: geometry with no capacity")
	}
	return newDisk(geo, clk, newCowStore())
}

// newDisk returns a disarmed, non-recording Disk over store.
func newDisk(geo Geometry, clk vclock.Clock, store *cowStore) *Disk {
	d := &Disk{geo: geo, clock: clk, store: store}
	d.disarm()
	return d
}

// Capacity returns the device size in bytes.
func (d *Disk) Capacity() int64 { return d.geo.NumSectors * SectorSize }

// Geometry returns the device geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the device counters (used between benchmark phases).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	d.mu.Unlock()
}

// checkRange refuses a request that is not whole sectors inside a
// device of numSectors.
func checkRange(sector int64, n int, numSectors int64) error {
	if sector < 0 || n%SectorSize != 0 || sector+int64(n/SectorSize) > numSectors {
		return fmt.Errorf("disk: out-of-range request sector=%d len=%d cap=%d sectors: %w",
			sector, n, numSectors, types.ErrInval)
	}
	return nil
}

// ReadSectors implements Device.
func (d *Disk) ReadSectors(sector int64, buf []byte) error {
	if err := checkRange(sector, len(buf), d.geo.NumSectors); err != nil {
		return err
	}
	d.mu.Lock()
	if err := d.injectFault(); err != nil {
		d.mu.Unlock()
		return err
	}
	nsec := int64(len(buf) / SectorSize)
	d.store.read(sector, buf)
	d.rotMap.apply(sector, buf)
	svc := d.serviceTime(sector, nsec)
	d.stats.Reads++
	d.stats.SectorsRead += nsec
	d.advance(svc)
	d.mu.Unlock()
	return nil
}

// WriteSectors implements Device. Dropped and torn writes still return
// success — the drive believed them durable — and take the device time
// of the whole request. A recording Disk journals what persisted.
func (d *Disk) WriteSectors(sector int64, buf []byte) error {
	if err := checkRange(sector, len(buf), d.geo.NumSectors); err != nil {
		return err
	}
	d.mu.Lock()
	if err := d.injectFault(); err != nil {
		d.mu.Unlock()
		return err
	}
	nsec := int64(len(buf) / SectorSize)
	persist := d.persisted(sector, buf)
	d.store.write(sector, persist)
	d.rec.journal(sector, persist)
	svc := d.serviceTime(sector, nsec)
	d.stats.Writes++
	d.stats.SectorsWrite += nsec
	d.advance(svc)
	d.mu.Unlock()
	return nil
}

// SetFreeIO toggles free-I/O mode: requests transfer data and update
// statistics but consume no simulated time. Experiment harnesses use it
// to model background work scheduled into idle periods (e.g. Fig. 5's
// no-cleaning-cost baseline; §5.1.5 notes idle-time and freeblock
// cleaning make this achievable in practice).
func (d *Disk) SetFreeIO(free bool) {
	d.mu.Lock()
	d.freeIO = free
	d.mu.Unlock()
}

func (d *Disk) advance(svc time.Duration) {
	if d.freeIO {
		return
	}
	d.stats.BusyTime += svc
	if adv, ok := d.clock.(vclock.Advancer); ok && d.clock != nil {
		adv.Advance(svc)
	}
}

// serviceTime models one request: seek to the target cylinder (skipped
// for sequential access), half-revolution rotational latency, then media
// transfer. The caller holds d.mu, so headPos updates are ordered.
func (d *Disk) serviceTime(sector, nsec int64) time.Duration {
	if d.clock == nil {
		return 0
	}
	var svc time.Duration
	if sector != d.headPos {
		dist := sector - d.headPos
		if dist < 0 {
			dist = -dist
		}
		cyls := dist / d.geo.SectorsPerTrack
		svc += d.seekTime(cyls)
		// Rotational latency: half a revolution on average. The model
		// is deterministic, so we charge the expectation.
		svc += d.halfRotation()
		d.stats.SeekCount++
	}
	svc += time.Duration(float64(nsec*SectorSize) / float64(d.geo.TransferRate) * float64(time.Second))
	// Crossing tracks during a long transfer costs a head switch per
	// track; approximate with track-to-track time.
	if tracks := nsec / d.geo.SectorsPerTrack; tracks > 0 {
		svc += time.Duration(tracks) * d.geo.TrackToTrack
	}
	d.headPos = sector + nsec
	return svc
}

func (d *Disk) halfRotation() time.Duration {
	if d.geo.RPM <= 0 {
		return 0
	}
	rev := time.Duration(float64(time.Minute) / float64(d.geo.RPM))
	return rev / 2
}

// seekTime interpolates the seek curve: track-to-track for one cylinder,
// rising with the square root of distance through the average seek at
// one-third stroke, to full stroke at maximum distance. This is the
// standard concave disk seek model.
func (d *Disk) seekTime(cyls int64) time.Duration {
	if cyls <= 0 {
		// Same cylinder, different rotational position: no arm motion.
		return 0
	}
	maxCyls := d.geo.NumSectors / d.geo.SectorsPerTrack
	if maxCyls < 1 {
		maxCyls = 1
	}
	frac := float64(cyls) / float64(maxCyls)
	if frac > 1 {
		frac = 1
	}
	t2t := float64(d.geo.TrackToTrack)
	full := float64(d.geo.FullStroke)
	return time.Duration(t2t + (full-t2t)*math.Sqrt(frac))
}

// chunkSectors is the sparse-allocation granularity (64KB chunks).
const chunkSectors = 128

// cowChunk is one sparse chunk of a copy-on-write sector store. A chunk
// is mutable only by the store that owns it; snapshotting clears
// ownership so both sides copy before writing.
type cowChunk struct {
	owner *cowStore // nil once shared between stores
	data  []byte
}

// cowStore is a sparse sector store supporting O(chunks) snapshots.
type cowStore struct {
	chunks map[int64]*cowChunk
}

func newCowStore() *cowStore {
	return &cowStore{chunks: make(map[int64]*cowChunk)}
}

// snapshot returns an independent store sharing all chunk payloads with
// s. Writes on either side copy the affected chunk first.
func (s *cowStore) snapshot() *cowStore {
	n := &cowStore{chunks: make(map[int64]*cowChunk, len(s.chunks))}
	for k, c := range s.chunks {
		c.owner = nil
		n.chunks[k] = c
	}
	return n
}

func (s *cowStore) read(sector int64, buf []byte) {
	for len(buf) > 0 {
		ci := sector / chunkSectors
		off := (sector % chunkSectors) * SectorSize
		n := int64(chunkSectors*SectorSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if c, ok := s.chunks[ci]; ok {
			copy(buf[:n], c.data[off:off+n])
		} else {
			// clear, not an index loop: `for i := range buf[:n] { buf[i] = 0 }`
			// ranges over one slice and stores through another, which the
			// compiler does not turn into a memclr — it zeroed a byte at a
			// time and was most of what a read of unwritten space cost.
			clear(buf[:n])
		}
		buf = buf[n:]
		sector += n / SectorSize
	}
}

func (s *cowStore) write(sector int64, buf []byte) {
	for len(buf) > 0 {
		ci := sector / chunkSectors
		off := (sector % chunkSectors) * SectorSize
		n := int64(chunkSectors*SectorSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		c, ok := s.chunks[ci]
		switch {
		case !ok:
			c = &cowChunk{owner: s, data: make([]byte, chunkSectors*SectorSize)}
			s.chunks[ci] = c
		case c.owner != s:
			// Shared with a snapshot: copy before mutating.
			c = &cowChunk{owner: s, data: append([]byte(nil), c.data...)}
			s.chunks[ci] = c
		}
		copy(c.data[off:off+n], buf[:n])
		buf = buf[n:]
		sector += n / SectorSize
	}
}

// AllocatedBytes reports how much backing memory the sparse store has
// materialized; tests use it to confirm large simulated devices stay
// laptop-sized.
func (d *Disk) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.store.chunks)) * chunkSectors * SectorSize
}
