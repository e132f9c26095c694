// Fault-injecting wrapper for arbitrary devices.
//
// FaultDisk owns its own in-memory copy-on-write store, which is what
// the torture harness's crash-image machinery needs — but that means it
// cannot exercise a real backend. Injector wraps any Device (in
// practice the file-backed FileDisk) with the same injectable fault
// classes: hard I/O errors, dropped writes, torn writes, and read-side
// bit-rot. It records nothing; crash-image sweeps stay on FaultDisk.
package disk

// Injector is a fault-injecting Device wrapper. It is safe for
// concurrent use and passes Syncer through to the underlying device.
type Injector struct {
	dev Device
	faults
}

// NewInjector wraps dev with disarmed fault injection.
func NewInjector(dev Device) *Injector {
	j := &Injector{dev: dev}
	j.disarm()
	return j
}

// Capacity implements Device.
func (j *Injector) Capacity() int64 { return j.dev.Capacity() }

// Sync implements Syncer when — and only when — the wrapped device
// does; write-through devices stay write-through behind the wrapper.
func (j *Injector) Sync() error {
	if s, ok := j.dev.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// ReadSectors implements Device.
func (j *Injector) ReadSectors(sector int64, buf []byte) error {
	j.mu.Lock()
	if err := j.injectFault(); err != nil {
		j.mu.Unlock()
		return err
	}
	armed := j.rotMap.armed()
	j.mu.Unlock()
	if err := j.dev.ReadSectors(sector, buf); err != nil {
		return err
	}
	if armed {
		j.mu.Lock()
		j.rotMap.apply(sector, buf)
		j.mu.Unlock()
	}
	return nil
}

// WriteSectors implements Device. Dropped and torn writes still return
// success — the caller believed them durable.
func (j *Injector) WriteSectors(sector int64, buf []byte) error {
	j.mu.Lock()
	if err := j.injectFault(); err != nil {
		j.mu.Unlock()
		return err
	}
	persist := j.persisted(sector, buf)
	j.mu.Unlock()
	if len(persist) == 0 {
		return nil
	}
	return j.dev.WriteSectors(sector, persist)
}
