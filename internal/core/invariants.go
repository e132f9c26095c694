package core

import (
	"bytes"
	"fmt"
	"slices"

	"s4/internal/audit"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// CheckInvariants walks every durable structure the drive knows about —
// object data blocks, inode checkpoints, journal chains, the history
// pool (every block an entry above its object's floor pins — stricter
// than the detection window: what has aged but the cleaner has not yet
// released must still be there), and audit blocks — and verifies that
// each referenced block is readable, decodes, and lives in a segment
// the allocator still considers allocated. A reference into a freed
// segment means the cleaner's deferred-reuse barrier (DESIGN.md §6) was
// violated: the next append may clobber state recovery depends on. It
// also audits the usage table those decisions are made from, and holds
// every object that loads from its journal to the replay of that
// journal from EntCreate (checkReplayLocked).
//
// The torture harness runs this after every crash recovery; it is also
// safe to call on a live drive (it takes the drive lock).
func (d *Drive) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return types.ErrDriveStopped
	}
	buf := make([]byte, seglog.BlockSize)
	checkAddr := func(id types.ObjectID, what string, addr seglog.BlockAddr) error {
		if addr == seglog.NilAddr {
			return nil
		}
		seg := d.log.SegOf(addr)
		if seg < 0 {
			return fmt.Errorf("core: %v %s at block %d outside segment area: %w", id, what, addr, types.ErrCorrupt)
		}
		if d.log.IsFree(seg) {
			return fmt.Errorf("core: %v %s at block %d references freed segment %d: %w", id, what, addr, seg, types.ErrCorrupt)
		}
		if err := d.log.Read(addr, buf); err != nil {
			return fmt.Errorf("core: %v %s at block %d unreadable: %v: %w", id, what, addr, err, types.ErrCorrupt)
		}
		if c := d.cache.peek(addr); c != nil && !bytes.Equal(c, buf) {
			return fmt.Errorf("core: %v %s at block %d: cached image differs from the log: %w", id, what, addr, types.ErrCorrupt)
		}
		return nil
	}

	for _, id := range d.objOrder {
		o := d.objects[id]
		if err := d.loadInode(o); err != nil {
			return fmt.Errorf("core: %v inode unloadable: %w", id, err)
		}
		for idx := range o.ino.blocks {
			if err := checkAddr(id, "data block", o.ino.blocks[idx]); err != nil {
				return err
			}
		}
		for _, a := range o.cpBlocks {
			if err := checkAddr(id, "checkpoint block", a); err != nil {
				return err
			}
		}
		// Walk the retained journal chain; every entry above the floor
		// must still reach its history blocks (the old-version data the
		// entry's undo needs).
		var chain []journal.SectorAddr // newest first
		var secs [][]journal.Entry     // their entries, for checkReplayLocked
		err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
			chain = append(chain, addr)
			secs = append(secs, entries)
			err := checkAddr(id, "journal sector", addr.Block())
			if err != nil {
				return true, err
			}
			for i := range entries {
				e := &entries[i]
				if e.Version <= o.floorVersion {
					continue // released; its history blocks may be gone
				}
				poolBlocks(e, func(a seglog.BlockAddr, packed bool) {
					what := "history block"
					if packed {
						what = "packed delta block"
					}
					if err == nil {
						err = checkAddr(id, what, a)
					}
				})
			}
			return false, err
		})
		if err != nil {
			return err
		}
		// The walk stops at jtail or where the chain ends; a jtail it
		// never met names a sector outside the chain.
		if n := len(chain); n > 0 && chain[n-1] != o.jtail {
			return fmt.Errorf("core: %v chain ends at sector %d, jtail is %d: %w", id, chain[n-1], o.jtail, types.ErrCorrupt)
		}
		if o.inodeRoot == seglog.NilAddr && !o.pruned {
			if err := d.checkReplayLocked(o, secs); err != nil {
				return err
			}
		}
		if o.chain != nil {
			slices.Reverse(chain)
			if !slices.Equal(o.chain, chain) || o.chainAged >= len(chain) {
				return fmt.Errorf("core: %v chain index %v (aged %d) does not match chain %v: %w", id, o.chain, o.chainAged, chain, types.ErrCorrupt)
			}
		}
	}

	for i, r := range d.auditBlocks {
		// auditRefIndex searches the list by firstSeq.
		if i > 0 && r.firstSeq <= d.auditBlocks[i-1].firstSeq {
			return fmt.Errorf("core: audit block %d first seq %d follows %d: %w", r.addr, r.firstSeq, d.auditBlocks[i-1].firstSeq, types.ErrCorrupt)
		}
		if err := checkAddr(types.AuditObject, "audit block", r.addr); err != nil {
			return err
		}
		if _, err := audit.DecodeBlock(buf); err != nil {
			return fmt.Errorf("core: audit block %d undecodable: %w", r.addr, err)
		}
	}

	if err := d.checkLandmarksLocked(); err != nil {
		return err
	}
	if err := d.checkUsageLocked(); err != nil {
		return err
	}

	// Loading every inode may have blown past the object cache budget;
	// trim back down so a live caller's cache stays bounded.
	return d.evictColdLocked()
}

// checkReplayLocked holds an object that loads from its journal to what
// loadInode's anchor relies on (DESIGN.md §12.1): replaying the chain
// (secs, newest sector first) and the pending tail from EntCreate yields
// o.ino field for field and block for block, and every live landmark
// image met on the way holds exactly the replay at its version — so a
// load may stop at any of them. Caller holds the exclusive drive lock,
// o.ino loaded.
func (d *Drive) checkReplayLocked(o *object, secs [][]journal.Entry) error {
	var in *Inode
	step := func(e *journal.Entry) error {
		switch {
		case in == nil:
			if e.Type != journal.EntCreate {
				return fmt.Errorf("core: %v journal does not reach creation: %w", o.id, types.ErrCorrupt)
			}
			in = newInode(o.id, e.Time, nil)
		case e.Type != journal.EntCheckpoint:
			in.redo(e)
		case o.landmarkLive(e.Version):
			img := landmarkImage(o.id, e)
			if img == nil {
				break // spoiled: not a landmark, nothing anchors here
			}
			if diff := inodeDiff(img, in); diff != "" {
				return fmt.Errorf("core: %v landmark v%d image is not the replay below it (%s): %w", o.id, e.Version, diff, types.ErrCorrupt)
			}
		}
		return nil
	}
	for i := len(secs) - 1; i >= 0; i-- {
		for j := range secs[i] {
			if err := step(&secs[i][j]); err != nil {
				return err
			}
		}
	}
	for _, e := range o.pending {
		if err := step(e); err != nil {
			return err
		}
	}
	if in == nil {
		return fmt.Errorf("core: %v has neither a checkpoint nor a journal: %w", o.id, types.ErrCorrupt)
	}
	if diff := inodeDiff(o.ino, in); diff != "" {
		return fmt.Errorf("core: %v v%d differs from the replay of its journal (%s): %w", o.id, o.ino.Version, diff, types.ErrCorrupt)
	}
	return nil
}

// inodeDiff names the first persistent field in which two inodes differ,
// or returns "" when they are the same version of the same object.
func inodeDiff(a, b *Inode) string {
	switch {
	case a.ID != b.ID:
		return fmt.Sprintf("id %v / %v", a.ID, b.ID)
	case a.Version != b.Version:
		return fmt.Sprintf("version %d / %d", a.Version, b.Version)
	case a.Size != b.Size:
		return fmt.Sprintf("size %d / %d", a.Size, b.Size)
	case a.CreateTime != b.CreateTime:
		return fmt.Sprintf("create time %d / %d", a.CreateTime, b.CreateTime)
	case a.ModTime != b.ModTime:
		return fmt.Sprintf("mod time %d / %d", a.ModTime, b.ModTime)
	case a.Deleted != b.Deleted || a.DeadTime != b.DeadTime:
		return fmt.Sprintf("deleted %v@%d / %v@%d", a.Deleted, a.DeadTime, b.Deleted, b.DeadTime)
	case !bytes.Equal(a.Attr, b.Attr):
		return "attributes"
	case !slices.Equal(a.ACL, b.ACL):
		return "ACL"
	}
	for idx, addr := range a.blocks {
		if b.blocks[idx] != addr {
			return fmt.Sprintf("block %d at %d / %d", idx, addr, b.blocks[idx])
		}
	}
	if len(a.blocks) != len(b.blocks) {
		return fmt.Sprintf("%d / %d mapped blocks", len(a.blocks), len(b.blocks))
	}
	return ""
}

// checkUsageLocked audits the segment usage table: no counter is
// negative, a free segment holds nothing, and the pool totals the
// throttle reads are the per-segment sums. A segment driven below zero
// later absorbs real blocks while reading empty, and is reclaimed with
// them inside.
func (d *Drive) checkUsageLocked() error {
	var liveSum, histSum int64
	for seg := int64(0); seg < d.log.NumSegments(); seg++ {
		live, hist := d.usage.occupancy(seg)
		if live < 0 || hist < 0 {
			return fmt.Errorf("core: segment %d usage negative (live %d, hist %d): %w", seg, live, hist, types.ErrCorrupt)
		}
		if (live != 0 || hist != 0) && d.log.IsFree(seg) {
			return fmt.Errorf("core: free segment %d counts live %d, hist %d: %w", seg, live, hist, types.ErrCorrupt)
		}
		liveSum += int64(live)
		histSum += int64(hist)
	}
	if l, h := d.usage.liveBlocks(), d.usage.historyBlocks(); l != liveSum || h != histSum {
		return fmt.Errorf("core: usage totals live %d, hist %d; segments sum to %d, %d: %w", l, h, liveSum, histSum, types.ErrCorrupt)
	}
	return nil
}

// CheckLandmarks verifies the landmark index (DESIGN.md §12.1) against
// the journal chains, in both directions. Every indexed landmark must
// be above both of its object's floors and correspond to an
// EntCheckpoint entry in the chain or pending tail, at the recorded
// sector, whose image decodes to the indexed object and version, and the
// index must be sorted ascending by time. Conversely every chain
// checkpoint entry above both floors whose image decodes must be
// indexed: the floors are the whole rule, on a live drive and on a
// recovered one alike.
func (d *Drive) CheckLandmarks() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return types.ErrDriveStopped
	}
	return d.checkLandmarksLocked()
}

func (d *Drive) checkLandmarksLocked() error {
	// Where a checkpoint entry sits (NilSector: the pending tail), and
	// whether its image decodes.
	type found struct {
		sector journal.SectorAddr
		valid  bool
	}
	type lmKey struct {
		version uint64
		time    types.Timestamp
	}
	for _, id := range d.objOrder {
		o := d.objects[id]
		seen := make(map[lmKey]found)
		for _, e := range o.pending {
			if e.Type == journal.EntCheckpoint {
				seen[lmKey{e.Version, e.Time}] = found{journal.NilSector, landmarkImage(id, e) != nil}
			}
		}
		err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
			for i := range entries {
				e := &entries[i]
				if e.Type != journal.EntCheckpoint {
					continue
				}
				valid := landmarkImage(id, e) != nil
				seen[lmKey{e.Version, e.Time}] = found{addr, valid}
				if valid && o.landmarkLive(e.Version) && o.landmarkOf(e) == nil {
					return true, fmt.Errorf("core: %v checkpoint v%d at sector %d missing from landmark index: %w", id, e.Version, addr, types.ErrCorrupt)
				}
			}
			return false, nil
		})
		if err != nil {
			return err
		}
		var prevTime types.Timestamp
		for _, ln := range o.landmarks {
			if ln.time < prevTime {
				return fmt.Errorf("core: %v landmark index out of time order at v%d: %w", id, ln.version, types.ErrCorrupt)
			}
			prevTime = ln.time
			if !o.landmarkLive(ln.version) {
				return fmt.Errorf("core: %v landmark v%d indexed at or below a floor (history %d, landmark %d): %w", id, ln.version, o.floorVersion, o.lmFloor, types.ErrCorrupt)
			}
			f, ok := seen[lmKey{ln.version, ln.time}]
			if !ok {
				return fmt.Errorf("core: %v landmark v%d has no chain or pending checkpoint entry: %w", id, ln.version, types.ErrCorrupt)
			}
			if ln.sector != f.sector {
				return fmt.Errorf("core: %v landmark v%d records sector %d, chain has it at %d: %w", id, ln.version, ln.sector, f.sector, types.ErrCorrupt)
			}
			if !f.valid {
				return fmt.Errorf("core: %v landmark v%d image does not decode to it: %w", id, ln.version, types.ErrCorrupt)
			}
		}
	}
	return nil
}
