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
	numSectors int64

	faults    // its mu also guards the fields below
	store     *cowStore
	recording bool
	base      *cowStore // state when StartRecording was called
	writes    []WriteRecord
	cursor    *cowStore // base + writes[:cursorK], for ImageAt
	cursorK   int
}

// NewFault creates a FaultDisk with the given capacity in bytes.
func NewFault(capacity int64) *FaultDisk {
	if capacity < SectorSize {
		panic("disk: fault device with no capacity")
	}
	return newFaultDisk(capacity/SectorSize, newCowStore())
}

// newFaultDisk returns a disarmed FaultDisk over store.
func newFaultDisk(numSectors int64, store *cowStore) *FaultDisk {
	f := &FaultDisk{numSectors: numSectors, store: store}
	f.disarm()
	return f
}

// Capacity implements Device.
func (f *FaultDisk) Capacity() int64 { return f.numSectors * SectorSize }

// ReadSectors implements Device.
func (f *FaultDisk) ReadSectors(sector int64, buf []byte) error {
	if err := checkRange(sector, len(buf), f.numSectors); err != nil {
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
	if err := checkRange(sector, len(buf), f.numSectors); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.injectFault(); err != nil {
		return err
	}
	persist := f.persisted(sector, buf)
	if len(persist) > 0 {
		f.store.write(sector, persist)
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
	return newFaultDisk(f.numSectors, f.cursor.snapshot()), nil
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
	return newFaultDisk(f.numSectors, st), nil
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
