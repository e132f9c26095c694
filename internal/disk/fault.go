// Recording fault device for crash-consistency testing.
//
// FaultDisk is a Device that journals every WriteSectors it acknowledges
// and can later materialize the crash image after any prefix of those
// writes — including a torn prefix of a single multi-sector write. It
// also injects the fault classes a real spindle exhibits: torn writes
// (a partial sector run persists), dropped writes (acknowledged but
// never persisted), bit-rot (reads return flipped bits), and hard I/O
// errors. The torture harness (internal/torture) drives recovery over
// every such image; see DESIGN.md "Crash-consistency testing".
//
// Unlike Disk, FaultDisk has no mechanical timing model: torture runs
// care about write ordering, not service time.
package disk

import (
	"fmt"
	"sync"

	"s4/internal/types"
)

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

// WriteRecord is one acknowledged WriteSectors call. Data holds the
// bytes that actually reached the media — a prefix for a torn write,
// nil for a dropped one — so replaying the journal reproduces the disk
// state exactly.
type WriteRecord struct {
	Sector int64
	Data   []byte
}

// Sectors returns how many sectors of the write were persisted.
func (w WriteRecord) Sectors() int { return len(w.Data) / SectorSize }

// FaultDisk is a recording, fault-injecting Device. It is safe for
// concurrent use.
type FaultDisk struct {
	mu         sync.Mutex
	numSectors int64
	store      *cowStore

	recording bool
	base      *cowStore // state when StartRecording was called
	writes    []WriteRecord
	cursor    *cowStore // base + writes[:cursorK], for ImageAt
	cursorK   int

	failAt   int64 // fail the Nth next I/O (<0 disabled)
	failErr  error
	dropAt   int64 // silently drop the Nth next write (<0 disabled)
	tearAt   int64 // tear the Nth next write (<0 disabled)
	tearKeep int   // sectors of the torn write that persist
	rotMap         // bit-rot in both modes; see rot.go
}

// NewFault creates a FaultDisk with the given capacity in bytes.
func NewFault(capacity int64) *FaultDisk {
	if capacity < SectorSize {
		panic("disk: fault device with no capacity")
	}
	return &FaultDisk{
		numSectors: capacity / SectorSize,
		store:      newCowStore(),
		failAt:     -1,
		dropAt:     -1,
		tearAt:     -1,
	}
}

// Capacity implements Device.
func (f *FaultDisk) Capacity() int64 { return f.numSectors * SectorSize }

func (f *FaultDisk) checkRange(sector int64, n int) error {
	if sector < 0 || n%SectorSize != 0 || sector+int64(n/SectorSize) > f.numSectors {
		return fmt.Errorf("disk: out-of-range request sector=%d len=%d cap=%d sectors: %w",
			sector, n, f.numSectors, types.ErrInval)
	}
	return nil
}

func (f *FaultDisk) injectFault() error {
	if f.failAt < 0 {
		return nil
	}
	if f.failAt == 0 {
		f.failAt = -1
		err := f.failErr
		if err == nil {
			err = fmt.Errorf("disk: injected fault")
		}
		return err
	}
	f.failAt--
	return nil
}

// ReadSectors implements Device.
func (f *FaultDisk) ReadSectors(sector int64, buf []byte) error {
	if err := f.checkRange(sector, len(buf)); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.injectFault(); err != nil {
		return err
	}
	f.store.read(sector, buf)
	f.rotMap.apply(sector, buf)
	return nil
}

// WriteSectors implements Device. Dropped and torn writes still return
// success — the whole point is that the drive believed them durable.
func (f *FaultDisk) WriteSectors(sector int64, buf []byte) error {
	if err := f.checkRange(sector, len(buf)); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.injectFault(); err != nil {
		return err
	}
	persist := buf
	switch {
	case f.dropAt == 0:
		f.dropAt = -1
		persist = nil
	case f.dropAt > 0:
		f.dropAt--
	}
	if persist != nil {
		switch {
		case f.tearAt == 0:
			f.tearAt = -1
			keep := f.tearKeep * SectorSize
			if keep > len(persist) {
				keep = len(persist)
			}
			persist = persist[:keep]
		case f.tearAt > 0:
			f.tearAt--
		}
	}
	if len(persist) > 0 {
		f.store.write(sector, persist)
		f.rotMap.overwrite(sector, int64(len(persist)/SectorSize))
	}
	if f.recording {
		var cp []byte
		if len(persist) > 0 {
			cp = append([]byte(nil), persist...)
		}
		f.writes = append(f.writes, WriteRecord{Sector: sector, Data: cp})
	}
	return nil
}

// FailAfter arms fault injection: the n-th subsequent I/O (0 = the very
// next) fails with err without transferring data. Mirrors Disk.FailAfter;
// pass a negative n to disarm.
func (f *FaultDisk) FailAfter(n int64, err error) {
	f.mu.Lock()
	f.failAt = n
	f.failErr = err
	f.mu.Unlock()
}

// DropAfter arms a dropped write: the n-th subsequent WriteSectors
// (0 = the very next) is acknowledged but nothing reaches the media.
func (f *FaultDisk) DropAfter(n int64) {
	f.mu.Lock()
	f.dropAt = n
	f.mu.Unlock()
}

// TearAfter arms a torn write: the n-th subsequent WriteSectors
// (0 = the very next) persists only its first keepSectors sectors but
// is acknowledged in full.
func (f *FaultDisk) TearAfter(n int64, keepSectors int) {
	f.mu.Lock()
	f.tearAt = n
	f.tearKeep = keepSectors
	f.mu.Unlock()
}

// RotSector arms persistent bit-rot: every subsequent read covering the
// sector sees its bytes XORed with mask until the sector is overwritten
// or the rot is cleared with a zero mask. See rotMap in rot.go for the
// full contract shared with Injector.
func (f *FaultDisk) RotSector(sector int64, mask byte) {
	f.mu.Lock()
	f.rotMap.arm(sector, mask, false)
	f.mu.Unlock()
}

// RotSectorOnce arms one-shot bit-rot: only the next read covering the
// sector sees the corruption, then it self-clears. A zero mask disarms.
func (f *FaultDisk) RotSectorOnce(sector int64, mask byte) {
	f.mu.Lock()
	f.rotMap.arm(sector, mask, true)
	f.mu.Unlock()
}

// ClearFaults disarms every pending fault, including rot in both modes.
func (f *FaultDisk) ClearFaults() {
	f.mu.Lock()
	f.failAt, f.dropAt, f.tearAt = -1, -1, -1
	f.rotMap.clear()
	f.mu.Unlock()
}

// StartRecording snapshots the current contents as the recording base
// and begins journaling every subsequent write. Any prior recording is
// discarded.
func (f *FaultDisk) StartRecording() {
	f.mu.Lock()
	f.base = f.store.snapshot()
	f.cursor = f.base.snapshot()
	f.cursorK = 0
	f.writes = nil
	f.recording = true
	f.mu.Unlock()
}

// Writes returns the number of writes journaled since StartRecording.
func (f *FaultDisk) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes)
}

// Record returns the k-th journaled write's metadata.
func (f *FaultDisk) Record(k int) WriteRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes[k]
}

// ImageAt materializes the crash image after exactly the first k
// journaled writes: an independent Device whose contents are the
// recording base plus writes[0:k]. The returned image is mutable (crash
// recovery itself writes) without disturbing the recorder or other
// images. Calling with ascending k is O(delta); going backwards replays
// from the base.
func (f *FaultDisk) ImageAt(k int) (*FaultDisk, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.recording {
		return nil, fmt.Errorf("disk: ImageAt without StartRecording: %w", types.ErrInval)
	}
	if k < 0 || k > len(f.writes) {
		return nil, fmt.Errorf("disk: crash point %d of %d writes: %w", k, len(f.writes), types.ErrInval)
	}
	if k < f.cursorK {
		f.cursor = f.base.snapshot()
		f.cursorK = 0
	}
	for f.cursorK < k {
		w := f.writes[f.cursorK]
		if len(w.Data) > 0 {
			f.cursor.write(w.Sector, w.Data)
		}
		f.cursorK++
	}
	return &FaultDisk{
		numSectors: f.numSectors,
		store:      f.cursor.snapshot(),
		failAt:     -1,
		dropAt:     -1,
		tearAt:     -1,
	}, nil
}

// ImageDropping materializes the image after the first k journaled
// writes with write j silently omitted — the state a lost write leaves
// behind when everything after it still lands. Unlike ImageAt it
// always replays from the recording base, so it costs O(k).
func (f *FaultDisk) ImageDropping(k, j int) (*FaultDisk, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.recording {
		return nil, fmt.Errorf("disk: ImageDropping without StartRecording: %w", types.ErrInval)
	}
	if k < 0 || k > len(f.writes) || j < 0 || j >= k {
		return nil, fmt.Errorf("disk: drop %d within crash point %d of %d writes: %w", j, k, len(f.writes), types.ErrInval)
	}
	st := f.base.snapshot()
	for i := 0; i < k; i++ {
		if i == j {
			continue
		}
		if w := f.writes[i]; len(w.Data) > 0 {
			st.write(w.Sector, w.Data)
		}
	}
	return &FaultDisk{
		numSectors: f.numSectors,
		store:      st,
		failAt:     -1,
		dropAt:     -1,
		tearAt:     -1,
	}, nil
}

// TornImageAt materializes the crash image after the first k writes
// plus a torn prefix (keepSectors sectors) of write k itself — the
// state a power cut mid-transfer leaves behind.
func (f *FaultDisk) TornImageAt(k, keepSectors int) (*FaultDisk, error) {
	img, err := f.ImageAt(k)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if k >= len(f.writes) {
		return nil, fmt.Errorf("disk: torn point %d of %d writes: %w", k, len(f.writes), types.ErrInval)
	}
	w := f.writes[k]
	keep := keepSectors * SectorSize
	if keep > len(w.Data) {
		keep = len(w.Data)
	}
	if keep > 0 {
		img.store.write(w.Sector, w.Data[:keep])
	}
	return img, nil
}
