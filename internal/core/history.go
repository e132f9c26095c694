package core

import (
	"errors"
	"fmt"
	"sort"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// This file implements the history-pool side of the drive: time-based
// version reconstruction, version listing, copy-forward restore, and
// the administrative Flush/FlushO history erasure of Table 1.
//
// History reconstruction runs against an object *snapshot* so the
// object lock is released before any disk I/O happens: flushed journal
// sectors and superseded data blocks are immutable (only the cleaner
// and Flush rewrite them, and both hold the drive lock exclusively,
// which a walker's shared hold excludes), so a snapshot of the chain
// head plus a clone of the live inode pins a consistent view no matter
// how many new versions writers stack on top (DESIGN.md §9).

// objSnapshot is a point-in-time view of one object, sufficient to
// reconstruct any retained version without holding the object's lock.
type objSnapshot struct {
	id      types.ObjectID
	ino     *Inode           // private clone of the live inode
	pending []*journal.Entry // private copy of the unflushed tail
	jhead   journal.SectorAddr
	jtail   journal.SectorAddr
	// chainLim is the newest entry version that existed in the flushed
	// chain when the snapshot was taken. Concurrent journal flushes may
	// merge younger entries into the (shared, rewritable) head sector;
	// the walk skips chain entries above chainLim so the snapshot never
	// sees them twice or out of order.
	chainLim  uint64
	floorTime types.Timestamp
	// landmarks is a value copy of the object's landmark index (DESIGN.md
	// §12): flushed checkpoint entries the reconstruction walk may anchor
	// at instead of the live head.
	landmarks []landmark
	// snapNow is the drive clock when the snapshot was taken, read under
	// the object lock. Every entry appended after the snapshot carries a
	// timestamp ≥ snapNow (writers read the clock under the exclusive
	// object lock), so snapNow is a sound exclusive upper bound for the
	// validity interval of a reconstruction that undoes nothing.
	snapNow types.Timestamp
	// epoch fences this snapshot's reconstructions against concurrent
	// invalidation: delta conversion frees history blocks under the
	// shared drive lock, so the recon cache discards puts whose epoch
	// went stale mid-walk (DESIGN.md §16).
	epoch uint64
}

// snapshotObject captures o. Caller holds o.mu (either mode, with the
// inode loaded) or the exclusive drive lock. The pending copy must be a
// fresh array: flushJournalLocked compacts o.pending in place, so a
// shared backing array would mutate under the walker.
func (d *Drive) snapshotObject(o *object) *objSnapshot {
	p := make([]*journal.Entry, len(o.pending))
	copy(p, o.pending)
	s := &objSnapshot{
		id: o.id, ino: o.ino.Clone(), pending: p,
		jhead: o.jhead, jtail: o.jtail,
		floorTime: o.floorTime,
		landmarks: append([]landmark(nil), o.landmarks...),
		snapNow:   vclock.TS(d.clk),
		epoch:     d.recon.epoch(o.id),
	}
	// Every flushed entry's version precedes every pending entry's
	// (flushes drain the oldest prefix), so the newest chain version at
	// snapshot time is just below pending, or the inode's version when
	// nothing is pending.
	if len(p) > 0 {
		s.chainLim = p[0].Version - 1
	} else {
		s.chainLim = o.ino.Version
	}
	return s
}

// walkEntriesSnap visits the snapshot's journal entries newest-first, from
// an anchor, through the retained tail (sectors older than jtail were
// freed by the cleaner). With no landmark the walk starts at the top:
// the pending copy, then the flushed chain from jhead. With one it
// starts in the landmark's sector, past the (newer) entries stacked
// above its checkpoint entry, and fn's first entry is that checkpoint
// entry itself, whose image is the anchor; a sector that does not hold
// it ends the walk with errLandmarkMiss before fn sees anything. fn
// returning true stops the walk. Caller holds the shared or exclusive
// drive lock — that is what keeps the cleaner from relocating chain
// sectors mid-walk; no object lock is needed.
func (d *Drive) walkEntriesSnap(s *objSnapshot, ln *landmark, fn func(e *journal.Entry) (bool, error)) error {
	from := s.jhead
	if ln != nil {
		from = ln.sector
	} else {
		for i := len(s.pending) - 1; i >= 0; i-- {
			if stop, err := fn(s.pending[i]); stop || err != nil {
				return err
			}
		}
	}
	seen := ln == nil // the anchor's own entry has been passed
	return d.walkSectors(s.id, from, s.jtail, func(_, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		for i := len(entries) - 1; i >= 0; i-- {
			e := &entries[i]
			switch {
			case !seen:
				if seen = e.Type == journal.EntCheckpoint && e.Version == ln.version && e.Time == ln.time; !seen {
					break
				}
				if stop, err := fn(e); stop || err != nil {
					return true, err
				}
			case e.Version > s.chainLim && e.Type != journal.EntCheckpoint:
				// Merged into the head sector after this snapshot was
				// taken; the pending copy already covered (or post-dates)
				// it.
			default:
				if stop, err := fn(e); stop || err != nil {
					return true, err
				}
			}
		}
		if !seen {
			// The landmark entry was not where the index said; stale copy.
			return true, errLandmarkMiss
		}
		return false, nil
	})
}

// inodeAtCached reconstructs the snapshot's inode as of time at, behind
// the reconstruction cache. The returned inode may be shared with other
// readers and must be treated as read-only. The floor precheck runs
// before the cache lookup, so a cached state whose interval straddles
// the (monotonically rising) history floor can never serve an at that
// aging or Flush has since made unreconstructible. Caller holds the
// shared or exclusive drive lock; no object lock is needed.
func (d *Drive) inodeAtCached(s *objSnapshot, at types.Timestamp) (*Inode, error) {
	if at < s.floorTime {
		return nil, fmt.Errorf("core: time %v predates retained history: %w", at, types.ErrNoVersion)
	}
	if in := d.recon.get(s.id, at); in != nil {
		return in, nil
	}
	// Landmark fast path (DESIGN.md §12.1): anchor at the earliest
	// flushed checkpoint entry strictly after at. Every entry newer than
	// the landmark has Time ≥ the landmark's > at, so the full walk
	// would undo all of them — and the checkpoint image already encodes
	// exactly the state they leave behind. The bound must be strict: an
	// entry sharing the landmark's timestamp but preceding it in the
	// chain could be the true stop entry for at == that timestamp.
	var in *Inode
	var from, to types.Timestamp
	err := errLandmarkMiss
	if ln, ok := landmarkAfter(s.landmarks, at); ok {
		if in, from, to, err = d.inodeAtSnapInterval(s, &ln, at); err == nil {
			d.landmarkHits.Add(1)
		}
	}
	if errors.Is(err, errLandmarkMiss) {
		// No landmark, or a miss: the walk from the live clone is always
		// correct.
		in, from, to, err = d.inodeAtSnapInterval(s, nil, at)
	}
	if err != nil {
		return nil, err
	}
	d.recon.put(s.id, from, to, in, s.epoch)
	return in, nil
}

// inodeAtSnapInterval is the one undo walk behind history reads. It
// reconstructs the snapshot's inode as of time at by undoing entries
// younger than at, newest-first, from an anchor: with no landmark the
// snapshot's live clone, with one the image its checkpoint entry
// carries, which the walk decodes in the landmark's sector — a landmark
// hit reads that sector and nothing more. The entries undone are those
// walkEntriesSnap visits from that anchor. It reports
// the reconstruction's validity interval: the result is the object's
// state for every instant in [from, to), which is what makes it
// memoizable (DESIGN.md §12.2). from is the stop entry's time; to is
// the oldest undone entry's time, or the anchor's (snapNow, the
// landmark's time) when nothing was undone. The returned inode is
// private to the caller. A landmark whose image does not decode to it,
// or whose sector no longer holds its entry, is errLandmarkMiss: the
// landmark is only an accelerator.
func (d *Drive) inodeAtSnapInterval(s *objSnapshot, ln *landmark, at types.Timestamp) (in *Inode, from, to types.Timestamp, err error) {
	in, to = s.ino, s.snapNow
	if ln != nil {
		in, to = nil, ln.time
	}
	from = s.floorTime // walk may run off the retained tail
	err = d.walkEntriesSnap(s, ln, func(e *journal.Entry) (bool, error) {
		if in == nil { // the landmark's own entry
			if in = landmarkImage(s.id, e); in == nil {
				return true, errLandmarkMiss
			}
			return false, nil
		}
		d.walkEntries.Add(1)
		if e.Time <= at {
			from = e.Time // stop entry established this state
			return true, nil
		}
		if e.Type == journal.EntCreate {
			// Undoing creation: the object did not exist at `at`.
			return true, types.ErrNoVersion
		}
		in.undo(e)
		to = e.Time
		return false, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if at < in.CreateTime {
		return nil, 0, 0, types.ErrNoVersion
	}
	if in.Poisoned() {
		// Some block's content at this instant was freed by a retention
		// skip (DESIGN.md §16): the whole version is conservatively
		// unreadable — a typed error, never manufactured bytes.
		return nil, 0, 0, fmt.Errorf("core: version at %v not retained by policy: %w", at, types.ErrNoVersion)
	}
	if from < in.CreateTime {
		// The interval must not extend to instants before the object
		// existed: those must keep answering ErrNoVersion.
		from = in.CreateTime
	}
	return in, from, to, nil
}

// errLandmarkMiss reports that a landmark anchor could not serve the
// reconstruction and the caller should fall back to the full walk.
var errLandmarkMiss = errors.New("core: landmark anchor unusable")

// landmarkAfter returns the earliest landmark with time strictly after
// at whose checkpoint entry has already been placed in a flushed sector
// (sector registration is the flush's job; an unflushed landmark has no
// chain position to anchor at).
func landmarkAfter(ls []landmark, at types.Timestamp) (landmark, bool) {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].time > at })
	for ; i < len(ls); i++ {
		if ls[i].sector != journal.NilSector {
			return ls[i], true
		}
	}
	return landmark{}, false
}

// inodeAtLocked returns the object's inode as of time at. current
// reports whether that is the live version (at sees the newest state).
// The returned inode is the live one when current; callers must not
// mutate it. Caller holds o.mu exclusively (plus the shared drive
// lock) or the exclusive drive lock.
func (d *Drive) inodeAtLocked(o *object, at types.Timestamp) (in *Inode, current bool, err error) {
	if err := d.loadInode(o); err != nil {
		return nil, false, err
	}
	if at >= o.ino.ModTime {
		return o.ino, true, nil
	}
	in, err = d.inodeAtCached(d.snapshotObject(o), at)
	return in, false, err
}

// VersionInfo describes one version transition of an object.
type VersionInfo struct {
	Version uint64
	Time    types.Timestamp
	Op      string // journal entry type name
	User    types.UserID
	Client  types.ClientID
	Size    uint64 // object size after the transition (writes/truncates)
}

// ListVersions returns the object's retained version history, newest
// first. Like any history access it requires the Recovery flag (or
// administrative credentials).
func (d *Drive) ListVersions(cred types.Cred, id types.ObjectID) ([]VersionInfo, error) {
	d.mu.RLock()
	vs, err := d.listVersionsShared(cred, id)
	d.auditOp(cred, types.OpListVersions, id, 0, 0, "", err)
	return vs, d.releaseShared(err)
}

// listVersionsShared implements ListVersions. Caller holds the shared
// drive lock.
func (d *Drive) listVersionsShared(cred types.Cred, id types.ObjectID) ([]VersionInfo, error) {
	if d.closed {
		return nil, types.ErrDriveStopped
	}
	o, err := d.getObjectShared(id)
	if err != nil {
		return nil, err
	}
	if err := d.lockObjectRead(o); err != nil {
		return nil, err
	}
	if err := d.checkPerm(cred, o.ino, types.PermRead|types.PermRecover); err != nil {
		o.mu.RUnlock()
		return nil, err
	}
	snap := d.snapshotObject(o)
	o.mu.RUnlock()
	var out []VersionInfo
	size := snap.ino.Size
	err = d.walkEntriesSnap(snap, nil, func(e *journal.Entry) (bool, error) {
		if e.Type == journal.EntCheckpoint {
			return false, nil
		}
		out = append(out, VersionInfo{
			Version: e.Version, Time: e.Time, Op: e.Type.String(),
			User: e.User, Client: e.Client, Size: size,
		})
		// Walking backward: the size before this entry is its OldSize.
		switch e.Type {
		case journal.EntWrite, journal.EntTruncate, journal.EntDelete:
			size = e.OldSize
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Revert restores the object to its state at time at by copying the old
// version forward as a new version (§3.3). Data blocks are physically
// copied so block liveness never spans versions. It mutates only the
// one object, so it runs under the shared drive lock with the object
// locked exclusively. In place of the door's deleted and permission
// checks it takes its own: restoring history requires recovery rights on
// the old version and write rights on the current object, and a deleted
// object is revived.
func (d *Drive) Revert(cred types.Cred, id types.ObjectID, at types.Timestamp) error {
	d.mu.RLock()
	var old *Inode
	err := d.mutateShared(cred, id, nil, 0, func(o *object) (bool, error) {
		var current bool
		var err error
		if old, current, err = d.inodeAtLocked(o, at); err != nil || current {
			return true, err // a Revert to the current version is already done
		}
		if err := d.checkPerm(cred, old, types.PermRead|types.PermRecover); err != nil {
			return false, err
		}
		if err := d.checkPerm(cred, o.ino, types.PermWrite); err != nil {
			return false, err
		}
		if old.Deleted {
			return false, fmt.Errorf("core: target version is deleted: %w", types.ErrNoVersion)
		}
		return false, nil
	}, func(o *object) error { return d.revertLocked(cred, o, old) })
	d.auditOp(cred, types.OpRevert, id, uint64(at), 0, "", err)
	return d.releaseShared(err)
}

// revertLocked copies old forward as o's new live version. Caller holds
// o.mu exclusively (plus the shared drive lock).
func (d *Drive) revertLocked(cred types.Cred, o *object, old *Inode) error {
	now := vclock.TS(d.clk)
	if o.ino.Deleted {
		d.appendEntry(o, o.mint(cred, now, &journal.Entry{Type: journal.EntRevive, OldSize: uint64(o.ino.DeadTime)}))
	}
	// Shape first: set the size (frees blocks beyond the target size).
	if o.ino.Size != old.Size {
		if err := d.truncateBlocksLocked(cred, o, old.Size); err != nil {
			return err
		}
	}
	// Copy forward every run of blocks whose old address differs from
	// the current one, one write per run of at most maxRun blocks. A
	// delta reference never equals a live address (bit 63 is set), so a
	// block behind a chain is always copied.
	const maxRun = types.MaxIO/types.BlockSize - 1
	nblk := (old.Size + types.BlockSize - 1) / types.BlockSize
	for blk := uint64(0); blk < nblk; {
		if old.Block(blk) == o.ino.Block(blk) {
			blk++
			continue
		}
		end := blk + 1
		for end < nblk && end-blk < maxRun && old.Block(end) != o.ino.Block(end) {
			end++
		}
		lo, hi := blk*types.BlockSize, end*types.BlockSize
		if hi > old.Size {
			hi = old.Size
		}
		data, err := d.readExtent(old, lo, hi-lo)
		if err != nil {
			return err
		}
		if err := d.writeBlocksLocked(cred, o, lo, data); err != nil {
			return err
		}
		blk = end
	}
	// Attributes and ACL, each change a version of its own. Neither side
	// is deleted by now, so the diff holds no deletion entry.
	for _, e := range metaDiff(nil, o.ino, old) {
		d.appendEntry(o, o.mint(cred, now, e))
	}
	return nil
}

// Flush removes all versions of all objects between two times
// (administrative; Table 1). The current state of every object is
// preserved; only intermediate history in (from, to] is erased. It
// rewrites journal chains, so it is a whole-drive operation, and ends
// with a checkpoint barrier: the erasure is durable when it returns.
func (d *Drive) Flush(cred types.Cred, from, to types.Timestamp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.adminGate(cred, types.OpFlush)
	for i := 0; err == nil && i < len(d.objOrder); i++ {
		if id := d.objOrder[i]; id != types.AuditObject {
			err = d.flushObjectLocked(d.objects[id], from, to)
		}
	}
	if err == nil {
		err = d.checkpointLocked()
	}
	d.auditOp(cred, types.OpFlush, 0, uint64(from), uint64(to), "", err)
	return err
}

// FlushO removes versions of one object between two times
// (administrative; Table 1), durably, as Flush does.
func (d *Drive) FlushO(cred types.Cred, id types.ObjectID, from, to types.Timestamp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.adminGate(cred, types.OpFlushO)
	o, ok := d.objects[id]
	if err == nil {
		err = errIf(!ok, types.ErrNoObject)
	}
	if err == nil {
		err = d.flushObjectLocked(o, from, to)
	}
	if err == nil {
		err = d.checkpointLocked()
	}
	d.auditOp(cred, types.OpFlushO, id, uint64(from), uint64(to), "", err)
	return err
}

// flushObjectLocked erases o's versions with Time in (from, to]. It
// rebuilds the retained entries' undo state by replaying from the
// oldest reconstructible version, reconciles the final state with the
// live inode via a synthesized merge entry, rewrites the journal chain,
// and frees data blocks referenced only by the erased versions. Caller
// holds the exclusive drive lock.
func (d *Drive) flushObjectLocked(o *object, from, to types.Timestamp) error {
	if err := d.loadInode(o); err != nil {
		return err
	}
	// Collect all retained entries, oldest first.
	var all []*journal.Entry
	if err := d.walkEntriesSnap(d.snapshotObject(o), nil, func(e *journal.Entry) (bool, error) {
		cp := *e
		all = append(all, &cp)
		return false, nil
	}); err != nil {
		return err
	}
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	// Strip checkpoint markers (rebuilt checkpoints supersede them) and
	// locate the dropped range. EntCreate is never erased: existence of
	// the object is not a version.
	filtered := all[:0]
	for _, e := range all {
		if e.Type != journal.EntCheckpoint {
			filtered = append(filtered, e)
		}
	}
	all = filtered
	isDropped := func(e *journal.Entry) bool {
		return e.Type != journal.EntCreate && e.Time > from && e.Time <= to
	}
	lastDrop := -1
	nDropped := 0
	for i, e := range all {
		if isDropped(e) {
			lastDrop = i
			nDropped++
		}
	}
	if nDropped == 0 {
		return nil
	}

	// A New block that a later overwrite delta-converted, or dropped under
	// a retention policy, left the usage counts then (freeLive) and its
	// address may have been reused since: the slot that wrote it must
	// neither release it again when its entry is erased nor, when its
	// entry is kept, go on naming it once the overwrite above is gone.
	// Which slots those are is read off the chain while its masks are
	// still the originals: pred maps a converting or dropping slot to the
	// slot that last wrote the same file block.
	type newSlot struct {
		e *journal.Entry
		k int
	}
	pred := make(map[newSlot]newSlot)
	writer := make(map[uint64]newSlot) // file block → the slot holding its content
	for _, e := range all {
		switch e.Type {
		case journal.EntWrite:
			drops := droppedByBit(e)
			for k := range e.New {
				idx, bit := e.FirstBlock+uint64(k), uint32(1)<<uint(k)
				if w, ok := writer[idx]; ok && (e.DeltaMask&bit != 0 || drops[k] != seglog.NilAddr) {
					pred[newSlot{e, k}] = w
				}
				writer[idx] = newSlot{e, k}
			}
		case journal.EntTruncate:
			for k := range e.Old {
				delete(writer, e.FirstBlock+uint64(k))
			}
		}
	}

	// Demote every delta reference in the chain to a plain full block
	// before any undo-field rewriting (DESIGN.md §16). A reverse delta
	// decodes against the exact content the original chain had just
	// above its entry; the kept-entry rewrite below re-points Old slots
	// at shadow-replay state, which would silently change that context.
	// So while the original chain is still intact, walk it newest-first
	// (the undo records each reference's context), materialize every
	// masked slot to a fresh full history block, and retire the packed
	// delta blocks. A reference whose context was already lost to a
	// newer retention skip becomes a skip of its own.
	probe := o.ino.Clone()
	var packedGone []seglog.BlockAddr
	packedSeen := make(map[seglog.BlockAddr]bool)
	var demoted []seglog.BlockAddr
	for i := len(all) - 1; i >= 0; i-- {
		e := all[i]
		if e.Type != journal.EntCreate {
			probe.undo(e)
		}
		if e.Type != journal.EntWrite || e.DeltaMask == 0 {
			continue
		}
		drops := droppedByBit(e)
		for k := range e.Old {
			if e.DeltaMask&(1<<uint(k)) == 0 {
				continue
			}
			idx := e.FirstBlock + uint64(k)
			raw := uint64(e.Old[k])
			packed, _ := splitDeltaRef(raw)
			if !packedSeen[packed] {
				packedSeen[packed] = true
				packedGone = append(packedGone, packed)
			}
			e.DeltaMask &^= 1 << uint(k)
			if probe.isPoisoned(idx) {
				e.Old[k] = seglog.NilAddr
				e.SkipMask |= 1 << uint(k)
				drops[k] = seglog.NilAddr
				continue
			}
			content, err := d.readExtent(probe, idx*types.BlockSize, types.BlockSize)
			if err != nil {
				return err
			}
			addr, err := d.log.Append(seglog.KindData, o.id, idx, e.Time, content)
			if err != nil {
				return err
			}
			seg := segOf(d.log, addr)
			d.usage.liveBorn(seg)
			d.usage.deprecate(seg)
			d.cache.put(addr, content)
			e.Old[k] = addr
			// The fresh block is the content the slot below wrote, and
			// from here on the only copy of it: that slot names it too, so
			// a replay that keeps its entry lands on this block and not on
			// the address conversion released.
			if w, ok := pred[newSlot{e, k}]; ok {
				w.e.New[w.k] = addr
				delete(pred, newSlot{e, k})
			}
			// Re-point the probe too, so deeper references in the same
			// chain resolve their context through the fresh block.
			ref := raw | deltaRefTag
			probe.blocks[idx] = addr
			delete(probe.deltaRef, ref)
			demoted = append(demoted, addr)
		}
		rebuildDropped(e, drops)
	}
	for _, a := range packedGone {
		d.usage.ageOut(segOf(d.log, a))
		d.cache.drop(a)
	}
	o.deltaRun = nil
	// What is left in pred lost its content for good (a retention drop, a
	// reference whose context a newer skip poisoned): nothing to re-point,
	// only a release not to repeat — by (entry, index), not by address.
	released := make(map[newSlot]bool, len(pred))
	for _, w := range pred {
		released[w] = true
	}

	// Two parallel replays from the oldest reconstructible state:
	// trueState applies every entry (real history); shadow applies only
	// kept entries, whose undo fields are rewritten against it. At the
	// end of the dropped range, merge entries reconcile shadow with
	// trueState so later reads see the post-range reality.
	base := o.ino.Clone()
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].Type != journal.EntCreate {
			base.undo(all[i])
		}
	}
	shadow := base.Clone()
	trueState := base
	// The merge entries that reconcile shadow with post-range reality
	// are stamped at the next kept entry's time (or the erase moment if
	// none follows), so reads anywhere inside the erased range resolve
	// to the state at the range start and never leak erased content.
	mergeTime := vclock.TS(d.clk)
	for i := lastDrop + 1; i < len(all); i++ {
		if !isDropped(all[i]) {
			mergeTime = all[i].Time
			break
		}
	}
	var kept []*journal.Entry
	var droppedNew []seglog.BlockAddr
	for i, e := range all {
		if isDropped(e) {
			for k, a := range e.New {
				if !released[newSlot{e, k}] {
					droppedNew = append(droppedNew, a)
				}
			}
			trueState.redo(e)
			if i == lastDrop {
				merges := mergeEntries(shadow, trueState, e.Version, mergeTime)
				kept = append(kept, merges...)
				for _, m := range merges {
					shadow.redo(m)
				}
			}
			continue
		}
		// Kept entry: rewrite its undo fields against shadow. Slots where
		// the shadow replay is poisoned (a retention skip below survives
		// the rewrite) keep — or gain — a skip bit, so walks below this
		// entry still poison instead of reading a manufactured hole;
		// slots where the replay reconstructed known content shed their
		// skip bit and point at it.
		switch e.Type {
		case journal.EntWrite:
			drops := droppedByBit(e)
			for k := range e.Old {
				idx := e.FirstBlock + uint64(k)
				bit := uint32(1) << uint(k)
				if shadow.isPoisoned(idx) {
					e.Old[k] = seglog.NilAddr
					if e.SkipMask&bit == 0 {
						e.SkipMask |= bit
						drops[k] = seglog.NilAddr
					}
					continue
				}
				e.SkipMask &^= bit
				delete(drops, k)
				e.Old[k] = shadow.Block(idx)
			}
			rebuildDropped(e, drops)
			e.OldSize = shadow.Size
		case journal.EntTruncate:
			// Truncate entries carry no skip bits on the wire; a poisoned
			// shadow slot here (retention skip + truncate + Flush overlap)
			// degrades to a hole — documented corner, DESIGN.md §16.
			e.OldSize = shadow.Size
			for k := range e.Old {
				e.Old[k] = shadow.Block(e.FirstBlock + uint64(k))
			}
		case journal.EntSetAttr:
			e.OldAttr = append([]byte(nil), shadow.Attr...)
		case journal.EntSetACL:
			e.OldACL = shadow.aclSlot(int(e.ACLIndex))
		case journal.EntDelete:
			e.OldSize = shadow.Size
		case journal.EntRevive:
			e.OldSize = uint64(shadow.DeadTime)
		}
		shadow.redo(e)
		trueState.redo(e)
		kept = append(kept, e)
	}

	// Free data blocks referenced only by erased versions.
	protected := make(map[seglog.BlockAddr]bool)
	for _, a := range o.ino.blocks {
		protected[a] = true
	}
	for _, e := range kept {
		for _, a := range e.Old {
			protected[a] = true
		}
		for _, a := range e.New {
			protected[a] = true
		}
	}
	for _, a := range droppedNew {
		if a != seglog.NilAddr && !protected[a] {
			d.usage.ageOut(segOf(d.log, a))
			d.cache.drop(a)
			protected[a] = true // guard against double free
		}
	}
	// Fresh keyframes materialized for entries that then dropped have no
	// owning New pointer anywhere; free the unreferenced ones the same
	// way.
	for _, a := range demoted {
		if !protected[a] {
			d.usage.ageOut(segOf(d.log, a))
			d.cache.drop(a)
			protected[a] = true
		}
	}
	// The chain is rewritten without its checkpoint markers, so every
	// landmark dies with it, and every cached
	// reconstruction of this object is now a lie.
	d.retireLandmarks(o)
	d.recon.dropObject(o.id)
	o.sinceLandmark = 0
	// Rewrite the journal chain with the kept entries.
	return d.rewriteChainLocked(o, kept)
}

// mergeEntries synthesizes the entries that carry `from` to `to`, all
// stamped with the given version and time. They stand in for an erased
// version range so that reads after the range still see reality.
func mergeEntries(from, to *Inode, ver uint64, ts types.Timestamp) []*journal.Entry {
	var synth []*journal.Entry
	if from.Size != to.Size || !mapsEqual(from, to) {
		idxs := divergentBlocks(from, to)
		i := 0
		for i < len(idxs) {
			// One entry per run of adjacent divergent blocks, never across
			// a block the range left alone: such a slot would carry the
			// live block's address as its Old, and an Old pointer is a
			// claim on the history pool (poolBlocks) — ageing the entry
			// would release a block that was never deprecated. Runs are
			// cut at the delta budget, since a poisoned source slot adds a
			// skip bit and a dropped-address word to the wire encoding.
			n := 1
			for i+n < len(idxs) && idxs[i+n] == idxs[i+n-1]+1 && n < maxDeltaEntryBlocks {
				n++
			}
			span := uint64(n)
			e := &journal.Entry{
				Type: journal.EntWrite, FirstBlock: idxs[i],
				Old:     make([]seglog.BlockAddr, span),
				New:     make([]seglog.BlockAddr, span),
				OldSize: from.Size, NewSize: to.Size,
			}
			for rel := uint64(0); rel < span; rel++ {
				blk := idxs[i] + rel
				e.New[rel] = to.Block(blk)
				if from.isPoisoned(blk) {
					// The pre-merge content at this slot is unknown (lost
					// to a retention skip); carry the poison through the
					// synthesized entry instead of minting a hole.
					e.SkipMask |= 1 << uint(rel)
					e.Dropped = append(e.Dropped, seglog.NilAddr)
					continue
				}
				e.Old[rel] = from.Block(blk)
			}
			synth = append(synth, e)
			i += n
		}
		if len(synth) == 0 {
			synth = append(synth, &journal.Entry{Type: journal.EntTruncate, OldSize: from.Size, NewSize: to.Size})
		}
	}
	synth = metaDiff(synth, from, to)
	for _, e := range synth {
		e.Version, e.Time = ver, ts
	}
	return synth
}

// metaDiff appends to synth the entries that carry from's attributes,
// deletion state and ACL to to's, unstamped: Flush's merge gives them
// the erased range's version, Revert mints each a version of its own.
func metaDiff(synth []*journal.Entry, from, to *Inode) []*journal.Entry {
	if string(from.Attr) != string(to.Attr) {
		synth = append(synth, &journal.Entry{Type: journal.EntSetAttr,
			OldAttr: append([]byte(nil), from.Attr...), NewAttr: append([]byte(nil), to.Attr...)})
	}
	switch {
	case !from.Deleted && to.Deleted:
		synth = append(synth, &journal.Entry{Type: journal.EntDelete, OldSize: from.Size})
	case from.Deleted && !to.Deleted:
		synth = append(synth, &journal.Entry{Type: journal.EntRevive, OldSize: uint64(from.DeadTime)})
	}
	for i := range max(len(from.ACL), len(to.ACL)) {
		if s, l := from.aclSlot(i), to.aclSlot(i); s != l {
			synth = append(synth, &journal.Entry{Type: journal.EntSetACL, ACLIndex: uint8(i), OldACL: s, NewACL: l})
		}
	}
	return synth
}

// rewriteChainLocked replaces o's journal chain with entries (oldest
// first), freeing the old sectors. Merge entries carry the erase-time
// stamp, so the new chain does not replay to the inode: o is left
// pruned with a stale block, as relocation leaves it, for the caller's
// barrier. Caller holds the exclusive drive lock.
func (d *Drive) rewriteChainLocked(o *object, entries []*journal.Entry) error {
	// Free old sectors.
	err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
		d.unrefJSector(addr)
		return false, nil
	})
	if err != nil {
		return err
	}
	o.jhead, o.jtail = journal.NilSector, journal.NilSector
	o.chain, o.chainAged = nil, 0 // the flush below starts a new index
	o.pruned, o.cpVersion = true, 0
	o.pending = entries
	return d.flushJournalLocked(o)
}

func mapsEqual(a, b *Inode) bool {
	if len(a.blocks) != len(b.blocks) {
		return false
	}
	for k, v := range a.blocks {
		if b.blocks[k] != v {
			return false
		}
	}
	return true
}

// divergentBlocks returns sorted block indices where a and b differ.
func divergentBlocks(a, b *Inode) []uint64 {
	set := make(map[uint64]bool)
	for k, v := range a.blocks {
		if b.blocks[k] != v {
			set[k] = true
		}
	}
	for k, v := range b.blocks {
		if a.blocks[k] != v {
			set[k] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HistoryBytes reports current history-pool occupancy in bytes. The
// usage counters are atomic, so no lock is needed.
func (d *Drive) HistoryBytes() int64 {
	return d.usage.historyBlocks() * types.BlockSize
}
