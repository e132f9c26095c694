// The fault state every device in this package embeds.
package disk

import (
	"fmt"
	"sync"
)

// faults is the injectable fault state of Disk, FaultDisk and Injector,
// one copy for all three, so the fault classes behave identically on
// each — and a new decorator gets them by embedding it:
//
//   - a hard I/O error (FailAfter): the n-th subsequent I/O fails
//     without transferring data;
//   - a dropped write (DropAfter): acknowledged, but nothing reaches the
//     media;
//   - a torn write (TearAfter): only a prefix of its sectors persists,
//     yet it is acknowledged in full;
//   - bit-rot in its two modes (RotSector, RotSectorOnce; see rotMap).
//
// mu is the embedding device's one lock: it guards the fault state and
// whatever state of its own the device documents under it.
type faults struct {
	mu       sync.Mutex
	failAt   int64 // fail the Nth next I/O (<0 disabled)
	failErr  error
	dropAt   int64 // silently drop the Nth next write (<0 disabled)
	tearAt   int64 // tear the Nth next write (<0 disabled)
	tearKeep int   // sectors of the torn write that persist
	rotMap
}

// disarm clears every fault, rot in both modes included. Caller holds
// mu, or owns a device no one else can see yet.
func (f *faults) disarm() {
	f.failAt, f.dropAt, f.tearAt = -1, -1, -1
	f.rotMap.clear()
}

// injectFault counts one I/O against an armed FailAfter and returns its
// error when this is the one. Caller holds mu.
func (f *faults) injectFault() error {
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

// persisted is the write filter: it counts one write against an armed
// drop or tear and returns what of buf reaches the media — nil for a
// dropped write, a prefix for a torn one — clearing rot under what
// lands. Caller holds mu.
func (f *faults) persisted(sector int64, buf []byte) []byte {
	switch {
	case f.dropAt == 0:
		f.dropAt = -1
		return nil
	case f.dropAt > 0:
		f.dropAt--
	}
	switch {
	case f.tearAt == 0:
		f.tearAt = -1
		buf = buf[:min(f.tearKeep*SectorSize, len(buf))]
	case f.tearAt > 0:
		f.tearAt--
	}
	f.rotMap.overwrite(sector, int64(len(buf)/SectorSize))
	return buf
}

// FailAfter arms fault injection: the n-th subsequent I/O (0 = the very
// next) fails with err without transferring data; negative n disarms.
func (f *faults) FailAfter(n int64, err error) {
	f.mu.Lock()
	f.failAt, f.failErr = n, err
	f.mu.Unlock()
}

// DropAfter arms a dropped write: the n-th subsequent WriteSectors
// (0 = the very next) is acknowledged but nothing reaches the media.
func (f *faults) DropAfter(n int64) {
	f.mu.Lock()
	f.dropAt = n
	f.mu.Unlock()
}

// TearAfter arms a torn write: the n-th subsequent WriteSectors
// (0 = the very next) persists only its first keepSectors sectors but
// is acknowledged in full.
func (f *faults) TearAfter(n int64, keepSectors int) {
	f.mu.Lock()
	f.tearAt, f.tearKeep = n, keepSectors
	f.mu.Unlock()
}

// RotSector arms persistent bit-rot: every subsequent read covering the
// sector sees its bytes XORed with mask until the sector is overwritten
// or the rot is cleared with a zero mask.
func (f *faults) RotSector(sector int64, mask byte) {
	f.mu.Lock()
	f.rotMap.arm(sector, mask, false)
	f.mu.Unlock()
}

// RotSectorOnce arms one-shot bit-rot: only the next read covering the
// sector sees the corruption, then it self-clears. A zero mask disarms.
func (f *faults) RotSectorOnce(sector int64, mask byte) {
	f.mu.Lock()
	f.rotMap.arm(sector, mask, true)
	f.mu.Unlock()
}

// ClearFaults disarms every pending fault, including rot in both modes.
func (f *faults) ClearFaults() {
	f.mu.Lock()
	f.disarm()
	f.mu.Unlock()
}

// rotMap models media corruption in two modes:
//
//   - Persistent rot (RotSector): every read covering the sector sees
//     its bytes XORed with the mask — latent media damage. It clears
//     when the sector is overwritten (writing fresh bytes repairs
//     latent rot, the way a real drive's remap/ECC does, which is what
//     lets the log's in-place block repair actually stick) or when the
//     rot is disarmed with mask zero / ClearFaults.
//   - One-shot rot (RotSectorOnce): only the next read covering the
//     sector sees the corruption, then it self-clears — a transient
//     transfer error rather than damaged media. Overwrites clear it
//     too.
//
// The embedding faults' mutex guards all methods.
type rotMap struct {
	rot     map[int64]byte // persistent: sector -> XOR mask
	rotOnce map[int64]byte // one-shot: consumed by the first read
}

// armed reports whether any sector is rotting.
func (r *rotMap) armed() bool { return len(r.rot) > 0 || len(r.rotOnce) > 0 }

// arm installs (or, with mask zero, removes) rot for one sector.
func (r *rotMap) arm(sector int64, mask byte, once bool) {
	m := &r.rot
	if once {
		m = &r.rotOnce
	}
	if mask == 0 {
		delete(*m, sector)
		return
	}
	if *m == nil {
		*m = make(map[int64]byte)
	}
	(*m)[sector] = mask
}

// apply corrupts the armed sectors of a read that returned buf for
// [sector, sector+len(buf)/SectorSize), consuming one-shot entries.
func (r *rotMap) apply(sector int64, buf []byte) {
	n := int64(len(buf) / SectorSize)
	xor := func(s int64, mask byte) {
		off := (s - sector) * SectorSize
		for i := int64(0); i < SectorSize; i++ {
			buf[off+i] ^= mask
		}
	}
	for s, mask := range r.rot {
		if s >= sector && s < sector+n {
			xor(s, mask)
		}
	}
	for s, mask := range r.rotOnce {
		if s >= sector && s < sector+n {
			xor(s, mask)
			delete(r.rotOnce, s)
		}
	}
}

// overwrite clears rot (both modes) for sectors a write actually
// persisted: the fresh bytes replace whatever was rotting underneath.
func (r *rotMap) overwrite(sector, nSectors int64) {
	if !r.armed() {
		return
	}
	for s := sector; s < sector+nSectors; s++ {
		delete(r.rot, s)
		delete(r.rotOnce, s)
	}
}

// clear disarms all rot in both modes.
func (r *rotMap) clear() {
	r.rot, r.rotOnce = nil, nil
}
