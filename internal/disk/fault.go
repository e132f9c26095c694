// Write recording for crash-consistency testing.
//
// A Disk can journal every WriteSectors it acknowledges and later
// materialize the crash image after any prefix of those writes —
// including a torn prefix of a single multi-sector write, or with one
// write lost. Writes pass the fault filter (faults.go) first, so the
// journal holds what reached the media: nil for a dropped write, the
// kept prefix for a torn one. The torture harness (internal/torture)
// drives recovery over every such image; see DESIGN.md
// "Crash-consistency testing".
//
// An image is a Disk over a copy-on-write snapshot of the store, with no
// clock, no armed faults and no recording of its own: torture runs care
// about write ordering, not service time.
package disk

import (
	"fmt"

	"s4/internal/types"
)

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

// recorder is a Disk's write journal. The Disk's mu guards it.
type recorder struct {
	on      bool
	base    *cowStore // state when StartRecording was called
	writes  []WriteRecord
	cursor  *cowStore // base + writes[:cursorK], for ImageAt
	cursorK int
}

// journal records one acknowledged write whose persisted bytes are
// persist, when recording is on.
func (r *recorder) journal(sector int64, persist []byte) {
	if r.on {
		// A dropped write appends nothing to nil: its Data stays nil.
		r.writes = append(r.writes, WriteRecord{Sector: sector, Data: append([]byte(nil), persist...)})
	}
}

// StartRecording snapshots the current contents as the recording base
// and begins journaling every subsequent write. Any prior recording is
// discarded.
func (d *Disk) StartRecording() {
	d.mu.Lock()
	base := d.store.snapshot()
	d.rec = recorder{on: true, base: base, cursor: base.snapshot()}
	d.mu.Unlock()
}

// Writes returns the number of writes journaled since StartRecording.
func (d *Disk) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rec.writes)
}

// Record returns the k-th journaled write's metadata.
func (d *Disk) Record(k int) WriteRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rec.writes[k]
}

// ImageAt materializes the crash image after exactly the first k
// journaled writes: an independent Device whose contents are the
// recording base plus writes[0:k]. The returned image is mutable (crash
// recovery itself writes) without disturbing the recorder or other
// images. Calling with ascending k is O(delta); going backwards replays
// from the base.
func (d *Disk) ImageAt(k int) (*Disk, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := &d.rec
	if !r.on {
		return nil, fmt.Errorf("disk: ImageAt without StartRecording: %w", types.ErrInval)
	}
	if k < 0 || k > len(r.writes) {
		return nil, fmt.Errorf("disk: crash point %d of %d writes: %w", k, len(r.writes), types.ErrInval)
	}
	if k < r.cursorK {
		r.cursor = r.base.snapshot()
		r.cursorK = 0
	}
	for ; r.cursorK < k; r.cursorK++ {
		w := r.writes[r.cursorK]
		r.cursor.write(w.Sector, w.Data)
	}
	return newDisk(d.geo, nil, r.cursor.snapshot()), nil
}

// ImageDropping materializes the image after the first k journaled
// writes with write j silently omitted — the state a lost write leaves
// behind when everything after it still lands. Unlike ImageAt it
// always replays from the recording base, so it costs O(k).
func (d *Disk) ImageDropping(k, j int) (*Disk, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := &d.rec
	if !r.on {
		return nil, fmt.Errorf("disk: ImageDropping without StartRecording: %w", types.ErrInval)
	}
	if k < 0 || k > len(r.writes) || j < 0 || j >= k {
		return nil, fmt.Errorf("disk: drop %d within crash point %d of %d writes: %w", j, k, len(r.writes), types.ErrInval)
	}
	st := r.base.snapshot()
	for i, w := range r.writes[:k] {
		if i != j {
			st.write(w.Sector, w.Data)
		}
	}
	return newDisk(d.geo, nil, st), nil
}

// TornImageAt materializes the crash image after the first k writes
// plus a torn prefix (keepSectors sectors) of write k itself — the
// state a power cut mid-transfer leaves behind.
func (d *Disk) TornImageAt(k, keepSectors int) (*Disk, error) {
	img, err := d.ImageAt(k)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if k >= len(d.rec.writes) {
		return nil, fmt.Errorf("disk: torn point %d of %d writes: %w", k, len(d.rec.writes), types.ErrInval)
	}
	w := d.rec.writes[k]
	img.store.write(w.Sector, w.Data[:min(max(keepSectors, 0)*SectorSize, len(w.Data))])
	return img, nil
}
