package disk

import (
	"fmt"
	"os"

	"s4/internal/types"
)

// FileDisk is a Device backed by a regular file — what the daemons
// (cmd/s4d) use for persistence across process restarts. It has no
// service-time model; timing experiments use the simulated Disk.
type FileDisk struct {
	f    *os.File
	size int64
}

// OpenFile opens (creating and sizing if needed) a file-backed device
// of the given capacity.
func OpenFile(path string, capacity int64) (*FileDisk, error) {
	if capacity%SectorSize != 0 || capacity <= 0 {
		return nil, fmt.Errorf("disk: capacity %d not sector-aligned: %w", capacity, types.ErrInval)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0600)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		// Preallocate with real zero blocks rather than a sparse
		// Truncate: O_DIRECT-style backends want the extents materialized
		// up front so steady-state appends never stall on allocation, and
		// a full-length image keeps read-modify-write latencies uniform
		// for the bench numbers.
		if err := prealloc(f, capacity); err != nil {
			f.Close()
			return nil, err
		}
	} else if st.Size() != capacity {
		capacity = st.Size()
		if capacity%SectorSize != 0 {
			f.Close()
			return nil, fmt.Errorf("disk: existing image %q is not sector-aligned: %w", path, types.ErrCorrupt)
		}
	}
	return &FileDisk{f: f, size: capacity}, nil
}

// prealloc writes real zeros over [0, capacity) in 1MB chunks and
// forces them out, so the image file's extents exist before the first
// log write.
func prealloc(f *os.File, capacity int64) error {
	const chunk = 1 << 20
	zero := make([]byte, chunk)
	for off := int64(0); off < capacity; off += chunk {
		n := int64(chunk)
		if off+n > capacity {
			n = capacity - off
		}
		if _, err := f.WriteAt(zero[:n], off); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Capacity returns the device size in bytes.
func (d *FileDisk) Capacity() int64 { return d.size }

// ReadSectors implements Device.
func (d *FileDisk) ReadSectors(sector int64, buf []byte) error {
	if err := checkRange(sector, len(buf), d.size/SectorSize); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, sector*SectorSize)
	return err
}

// WriteSectors implements Device.
func (d *FileDisk) WriteSectors(sector int64, buf []byte) error {
	if err := checkRange(sector, len(buf), d.size/SectorSize); err != nil {
		return err
	}
	_, err := d.f.WriteAt(buf, sector*SectorSize)
	return err
}

// Sync flushes the backing file to stable storage.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close syncs and closes the backing file.
func (d *FileDisk) Close() error {
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}
