package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	stdlog "log"
	"math"
	"time"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// Checkpointing and crash recovery.
//
// Checkpoint: the drive flushes every object's journal, writes full
// inode checkpoints for objects modified since their last checkpoint,
// and then serializes the object map (plus allocator and audit state)
// and the segment index (segindex.go) into the segment log's
// alternating checkpoint slots.
//
// Recovery: read the newest object-map checkpoint, roll forward over
// segments written after it by redoing journal entries with versions
// beyond each object's checkpointed version, then rebuild segment
// usage. Two ways to rebuild (DESIGN.md §14):
//
//   - Full scan: recount from scratch by classifying every on-disk
//     block against the recovered object map — the LFS-style recovery
//     that trades restart time for zero steady-state bookkeeping risk.
//   - Indexed: preload the checkpoint-time counters from the persisted
//     segment index and apply only the deltas the replayed tail
//     implies. Any defect in the index degrades to the full scan; the
//     torture battery proves both paths produce identical state.
//
// Either way recovery is a function of the image alone. A deprecated
// block is in the history pool iff a retained journal entry above its
// object's floor pins it (poolBlocks), or it is the validated landmark
// root of such an entry above the object's landmark floor too, or it is
// a final block of a deleted object not yet reaped — which is the state
// the drive was in when it stopped. What has left the detection window
// since is for the first cleaner pass to decide: only the cleaner moves
// a floor, both floors ride the object map, so only the cleaner
// releases history or retires a landmark, once.

const (
	imapMagic = 0x53344D50 // "S4MP"
	// Version 2 added the per-object landmark floor. Like the log format
	// and the segment index there is one decoder: any other version is
	// refused.
	imapVersion = 2
)

// checkpointLocked makes the entire drive state durable.
func (d *Drive) checkpointLocked() error {
	for _, id := range d.objOrder {
		o := d.objects[id]
		if len(o.pending) > 0 {
			if err := d.flushJournalLocked(o); err != nil {
				return err
			}
		}
		// Journal-complete objects need no metadata copy: their chain
		// reconstructs them entirely (§4.2.2). Only chain-pruned or
		// previously checkpointed objects are refreshed.
		if o.ino != nil && !o.journalComplete() && (o.cpVersion != o.ino.Version || o.inodeRoot == seglog.NilAddr) {
			if err := d.checkpointObjectLocked(o); err != nil {
				return err
			}
		}
	}
	d.auditMu.Lock()
	auditErr := d.flushAuditLocked()
	d.auditMu.Unlock()
	if auditErr != nil {
		return auditErr
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	// Everything staged so far is durable, so every issued commit
	// ticket is covered: a Sync racing in right after the exclusive
	// lock drops can coalesce onto this force. No ticket holder can be
	// waiting now (they hold the shared drive lock), so plain stores
	// under commitMu suffice.
	d.commitMu.Lock()
	d.commitDone = d.commitSeq
	d.commitMu.Unlock()
	imap := d.encodeImapLocked()
	idx := d.encodeSegIndexLocked()
	if len(imap)+len(idx) > d.log.CheckpointCapacity() {
		// The index is advisory: rather than fail the checkpoint, drop
		// it and let the next open pay for a full scan.
		stdlog.Printf("core: segment index (%d bytes) does not fit the checkpoint slot; next open will full-scan", len(idx))
		idx = nil
	}
	if err := d.log.WriteCheckpoint(imap, idx); err != nil {
		return err
	}
	// The durable object map no longer references segments the cleaner
	// emptied; they may now rejoin the allocator, and the objects whose
	// blocks it moved out of them may emit landmarks again.
	for seg := range d.pendingFree {
		if err := d.releaseSegmentLocked(seg); err != nil {
			return err
		}
		delete(d.pendingFree, seg)
	}
	for _, o := range d.objects {
		o.relocPending = false
	}
	return nil
}

// Checkpoint is the public form, taken periodically by daemons.
func (d *Drive) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return types.ErrDriveStopped
	}
	return d.checkpointLocked()
}

func (d *Drive) encodeImapLocked() []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], imapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], imapVersion)
	buf = append(buf, hdr[:]...)
	putU(uint64(d.nextOID))
	putU(uint64(d.window))
	putU(d.auditSeq)
	putU(uint64(len(d.auditBlocks)))
	for _, r := range d.auditBlocks {
		putU(uint64(r.addr))
		putU(r.firstSeq)
		putU(uint64(r.lastTime))
	}
	putU(uint64(len(d.objects)))
	for _, id := range d.objOrder {
		o := d.objects[id]
		putU(uint64(o.id))
		putU(o.nextVersion)
		putU(uint64(o.inodeRoot))
		putU(uint64(len(o.cpBlocks)))
		for _, a := range o.cpBlocks {
			putU(uint64(a))
		}
		putU(o.cpVersion)
		putU(uint64(o.jhead))
		putU(uint64(o.jtail))
		putU(o.floorVersion)
		putU(uint64(o.floorTime))
		putU(o.lmFloor)
		if o.pruned {
			putU(1)
		} else {
			putU(0)
		}
	}
	return buf
}

// decodeImap installs an object-map checkpoint into a freshly opened
// drive. Every failure wraps types.ErrCorrupt and leaves the drive
// untouched: nothing is installed until the whole blob has decoded.
func (d *Drive) decodeImap(data []byte) error {
	if len(data) < 8 || binary.LittleEndian.Uint32(data[:4]) != imapMagic {
		return fmt.Errorf("core: bad object-map checkpoint: %w", types.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != imapVersion {
		return fmt.Errorf("core: object-map checkpoint version %d, this build reads %d: %w", v, imapVersion, types.ErrCorrupt)
	}
	data = data[8:]
	var err error
	getU := func() uint64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			if err == nil {
				err = fmt.Errorf("core: object-map varint: %w", types.ErrCorrupt)
			}
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	nextOID := types.ObjectID(getU())
	window := time.Duration(getU())
	auditSeq := getU()
	var auditBlocks []auditBlockRef
	for n := getU(); n > 0 && err == nil; n-- {
		auditBlocks = append(auditBlocks, auditBlockRef{
			addr:     seglog.BlockAddr(getU()),
			firstSeq: getU(),
			lastTime: types.Timestamp(getU()),
		})
	}
	var objs []*object
	for n := getU(); n > 0 && err == nil; n-- {
		o := &object{id: types.ObjectID(getU()), nextVersion: getU(), inodeRoot: seglog.BlockAddr(getU())}
		if len(objs) > 0 && o.id <= objs[len(objs)-1].id && err == nil {
			err = fmt.Errorf("core: object map out of order at %v: %w", o.id, types.ErrCorrupt)
		}
		for nCP := getU(); nCP > 0 && err == nil; nCP-- {
			o.cpBlocks = append(o.cpBlocks, seglog.BlockAddr(getU()))
		}
		o.cpVersion = getU()
		o.jhead = journal.SectorAddr(getU())
		o.jtail = journal.SectorAddr(getU())
		o.floorVersion = getU()
		o.floorTime = types.Timestamp(getU())
		o.lmFloor = getU()
		o.pruned = getU() != 0
		objs = append(objs, o)
	}
	if err == nil && len(data) != 0 {
		err = fmt.Errorf("core: %d trailing bytes after object map: %w", len(data), types.ErrCorrupt)
	}
	if err != nil {
		return err
	}
	d.nextOID, d.window, d.auditSeq, d.auditBlocks = nextOID, window, auditSeq, auditBlocks
	for _, o := range objs {
		o.lruEl = d.objLRU.PushBack(o)
		d.addObjectLocked(o)
	}
	return nil
}

// recover restores drive state after Open: checkpoint load, journal
// roll-forward, and a usage rebuild (indexed when the persisted segment
// index is usable, full recount otherwise).
func (d *Drive) recover() error {
	blob, idxBlob, cpSeq, ok, err := d.log.ReadCheckpoint()
	if err != nil {
		return err
	}
	if ok {
		if err := d.decodeImap(blob); err != nil {
			return err
		}
	}
	idx := d.loadSegIndex(idxBlob, ok)
	if idx != nil {
		d.preloadSegIndex(idx)
	}
	// Both paths vet the replayed tail: what the checkpoint covered
	// (recSnapVer) is exempt, the rest is checked against its segment's
	// durable summary (recSumCover).
	d.recSumCover = make(map[int64]int)
	d.recDrop = make(map[types.ObjectID]uint64)
	d.recSnapVer = make(map[types.ObjectID]uint64, len(d.objects))
	for id, o := range d.objects {
		d.recSnapVer[id] = o.nextVersion - 1
	}
	// Roll forward: visit segments written after the checkpoint in
	// sequence order, relinking journal chains and redoing entries.
	visited := make(map[int64]bool)
	cpAuditSeq := d.auditSeq
	jbuf := make([]byte, seglog.BlockSize) // every journal block of the scan
	err = d.log.ScanFrom(cpSeq, func(seg int64, sum seglog.Summary) error {
		visited[seg] = true
		d.recSumCover[seg] = len(sum.Entries)
		d.log.MarkAllocated(seg)
		d.log.SetSeq(sum.Seq)
		for i, e := range sum.Entries {
			addr := d.log.EntryAt(seg, i)
			switch e.Kind {
			case seglog.KindJournal:
				if err := d.recoverJournalBlock(addr, jbuf); err != nil {
					return err
				}
			case seglog.KindAudit:
				d.recoverAuditBlock(addr, e.Key, e.Time, cpAuditSeq)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := d.vetSkippedHeads(visited); err != nil {
		return err
	}
	// The roll-forward rebuilt the policy table object (if any) like
	// every other object. It is created lazily by the first SetPolicy,
	// so pre-upgrade images open unchanged.
	if err := d.loadPoliciesLocked(); err != nil {
		return err
	}
	if idx != nil {
		if err = d.finishIndexedRecovery(idx, visited); errors.Is(err, errIndexStale) {
			idx = d.rejectSegIndex(err.Error())
		}
	}
	if idx == nil {
		err = d.recountUsage()
	} else if err == nil {
		d.stats.IndexLoads++
	}
	if err == nil {
		err = d.recErr // a coverage probe the usage rebuild could not finish
	}
	if err != nil {
		return err
	}
	// Both paths end with aging unscheduled, so the first cleaner pass
	// visits every object: that pass, not this function, releases
	// whatever left the window while the drive was down.
	for _, o := range d.objects {
		o.nextAge = 0
	}
	d.recPreJhead, d.recSnapVer, d.recTouched, d.recSumCover, d.recDrop = nil, nil, nil, nil, nil
	// Evict down to the configured object-cache budget.
	return d.evictColdLocked()
}

// rejectSegIndex records one fallback from the persisted segment index
// to the full scan, and why.
func (d *Drive) rejectSegIndex(why string) *segIndex {
	d.stats.IndexFallbacks++
	stdlog.Printf("core: %s; falling back to full-scan recovery", why)
	return nil
}

// loadSegIndex decides whether recovery may anchor at the persisted
// segment index. Any reason it cannot — index absent, undecodable, or
// naming a different object set than the object map it rode with —
// counts as a fallback and degrades to the full scan. DisableSegIndex
// is a deliberate request for the full scan, not a fallback.
func (d *Drive) loadSegIndex(idxBlob []byte, haveCP bool) *segIndex {
	if !haveCP || d.opts.DisableSegIndex {
		return nil
	}
	if idxBlob == nil {
		return d.rejectSegIndex("checkpoint carries no segment index")
	}
	idx, err := decodeSegIndex(idxBlob, d.log.NumSegments())
	if err != nil {
		return d.rejectSegIndex(fmt.Sprintf("segment index rejected (%v)", err))
	}
	if len(idx.objects) != len(d.objects) {
		return d.rejectSegIndex("segment index object set differs from object map")
	}
	for id := range d.objects {
		if _, ok := idx.objects[id]; !ok {
			return d.rejectSegIndex("segment index object set differs from object map")
		}
	}
	return idx
}

// preloadSegIndex installs the checkpoint-time usage tables and per-
// object recovery hints before the roll-forward scan runs.
func (d *Drive) preloadSegIndex(idx *segIndex) {
	nSeg := d.log.NumSegments()
	for seg := int64(0); seg < nSeg; seg++ {
		s := idx.segs[seg]
		if s.free {
			continue // seglog.Open starts every segment free
		}
		d.log.MarkAllocated(seg)
		d.usage.set(seg, s.live, s.hist)
	}
	d.jblockRef = make(map[seglog.BlockAddr]int, len(idx.jrefs))
	for a, n := range idx.jrefs {
		d.jblockRef[a] = n
	}
	d.jstageAddr, d.jstageUsed = seglog.NilAddr, 0
	d.recPreJhead = make(map[types.ObjectID]journal.SectorAddr, len(d.objects))
	d.recTouched = make(map[types.ObjectID]bool)
	for id, o := range d.objects {
		d.recPreJhead[id] = o.jhead
		o.landmarks = append([]landmark(nil), idx.objects[id]...)
	}
}

// recoverJournalBlock relinks every sector of one flushed journal block
// and redoes entries newer than the owning objects' checkpointed
// versions. Slots are processed in order, which preserves chronology.
// buf is the scan's block buffer; decoded entries do not alias it.
func (d *Drive) recoverJournalBlock(addr seglog.BlockAddr, buf []byte) error {
	if err := d.log.Read(addr, buf); err != nil {
		return err
	}
	for slot := 0; slot < journal.SectorsPerBlock; slot++ {
		data := buf[slot*journal.SectorSize : (slot+1)*journal.SectorSize]
		id, prev, entries, ok, err := journal.DecodeSector(data)
		if err != nil || !ok {
			continue // empty or torn slot: nothing durable to replay
		}
		sa := journal.MakeSectorAddr(addr, slot)
		if err := d.recoverJournalSector(sa, prev, id, entries); err != nil {
			return err
		}
	}
	return nil
}

func (d *Drive) recoverJournalSector(addr journal.SectorAddr, prev journal.SectorAddr, id types.ObjectID, entries []journal.Entry) error {
	d.recReplay += int64(len(entries))
	o := d.objects[id]
	if o == nil {
		o = &object{id: id, nextVersion: 1}
		o.lruEl = d.objLRU.PushBack(o)
		d.addObjectLocked(o)
		if id >= d.nextOID {
			d.nextOID = id + 1
		}
	}
	// Vet the sector before anything reads the chain: the shared
	// journal sector is rewritten in place, so a crash can leave an
	// entry durable while the data blocks it points at — staged after
	// the last summary snapshot — are not. Nothing from the first such
	// entry on was acknowledged (Sync writes the covering snapshot
	// before returning), so treat it as the LFS tail it is: erase the
	// suffix from the sector, and poison every later version of the
	// object, so the recovered state stays an exact prefix of the op
	// sequence, post-crash writes cannot collide with the rejected
	// versions, and full chain replays (loadInode below walks the
	// media, which may include this very sector when it is the
	// rewritten checkpoint-time head) cannot resurrect fabricated
	// state. Everything synced before the checkpoint is covered, so a
	// re-synced old sector always vets clean; the poison floor is a
	// version for the same reason — spared prefixes stay spared.
	entries, err := d.vetSector(addr, prev, id, entries, math.MaxUint64)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		// The whole sector was un-durable tail: it is an empty slot
		// now and never joins the chain.
		return nil
	}
	// Materialize the inode: from its checkpoint, from the chain the
	// object map already links (journal-complete objects skip
	// checkpoints), or fresh for objects born after the checkpoint.
	if o.ino == nil {
		if o.inodeRoot != seglog.NilAddr || o.jhead != journal.NilSector {
			if err := d.loadInode(o); err != nil {
				return err
			}
		} else {
			if entries[0].Type != journal.EntCreate {
				return fmt.Errorf("core: %v: journal without create or checkpoint: %w", id, types.ErrCorrupt)
			}
			o.ino = newInode(id, entries[0].Time, nil)
			d.loaded.Add(1)
		}
	}
	newest := entries[len(entries)-1].Version
	if newest <= o.cpVersion || newest <= o.ino.Version {
		// A pre-checkpoint (or already-linked) sector re-synced inside
		// a newer segment: its effects are already present — in the inode.
		// The checkpointed version counter can still predate them: a head
		// merge rewrote the checkpoint-time head sector in place, and the
		// loadInode above replayed the merged entries with the rest of
		// the chain. Left behind, the counter mints their versions again,
		// and the next open cuts the originals as an unacknowledged tail.
		o.nextVersion = max(o.nextVersion, newest+1)
		return nil
	}
	if d.recTouched != nil {
		// Indexed recovery: accountReplayTail walks this object's post-
		// checkpoint tail once the scan has fully relinked it.
		d.recTouched[id] = true
	}
	for i := range entries {
		e := &entries[i]
		if e.Version <= o.cpVersion || e.Version < o.ino.Version {
			continue
		}
		if e.Type == journal.EntCreate {
			// The initial ACL and attributes arrive as the EntSetACL /
			// EntSetAttr entries that immediately follow.
			o.ino.CreateTime = e.Time
			o.ino.ModTime = e.Time
			continue
		}
		o.ino.redo(e)
		if e.Version >= o.nextVersion {
			o.nextVersion = e.Version + 1
		}
	}
	o.jhead = addr
	if o.jtail == journal.NilSector {
		o.jtail = addr
	}
	return nil
}

// vetSector cuts the unacknowledged suffix out of one journal sector:
// everything from the first entry that is above maxVersion, at or above
// the object's poison floor, or not durable (entryDurable). The cut
// lowers the poison floor to that entry's version and is erased from
// the media; the entries that stay are returned. An entry at or below
// the object's checkpointed version is never cut: the checkpoint's Sync
// made it durable, and the blocks it names may have been released and
// their segments reused since — aged history, a retired landmark's
// root — which is not the crash cutting a flush. Chain relocation
// re-places such entries in post-checkpoint segments, so the scan does
// meet them.
func (d *Drive) vetSector(addr, prev journal.SectorAddr, id types.ObjectID, entries []journal.Entry, maxVersion uint64) ([]journal.Entry, error) {
	poison, snapVer := d.recDrop[id], d.recSnapVer[id]
	for i := range entries {
		e := &entries[i]
		if e.Version <= snapVer || e.Version <= maxVersion && (poison == 0 || e.Version < poison) && d.entryDurable(e) {
			continue
		}
		if d.recErr != nil {
			return nil, d.recErr // the device, not the log, said "not durable"
		}
		if poison == 0 || e.Version < poison {
			d.recDrop[id] = e.Version
		}
		d.stats.RecoveryTruncations++
		return entries[:i], d.truncateJournalSector(addr, prev, id, entries, i)
	}
	return entries, nil
}

// entryDurable reports whether every block a journal entry introduces
// is covered by its segment's durable summary. An uncovered pointer
// means the crash cut the flush between the in-place journal rewrite
// and the data (or snapshot) write it described: the entry's payload
// may be zeros, stale bytes, or absent entirely, and replaying it would
// fabricate state no client was ever acknowledged.
func (d *Drive) entryDurable(e *journal.Entry) bool {
	for _, nw := range e.New {
		if nw != seglog.NilAddr && !d.recCovered(nw) {
			return false
		}
	}
	if e.Type == journal.EntCheckpoint && e.InodeAddr != seglog.NilAddr && !d.recCovered(e.InodeAddr) {
		return false
	}
	// A packed delta block is written by the same flush as the entry
	// whose masked Old slots point into it; replaying the entry without
	// it would leave history chains referencing bytes that never became
	// durable.
	durable := true
	poolBlocks(e, func(a seglog.BlockAddr, packed bool) {
		if packed && !d.recCovered(a) {
			durable = false
		}
	})
	return durable
}

// truncateJournalSector rewrites the journal sector at addr keeping
// only entries[:keep], erasing an un-durable replay tail from the
// chain structurally: loadInode replays complete chains and new writes
// reuse the freed versions, so skipping the entries in memory is not
// enough — they must leave the media. A sector whose entries are all
// rejected becomes an empty slot and never joins the chain. The write
// is crash-safe in the advisory sense: re-running recovery after a
// crash mid-truncation just rejects the same suffix again.
func (d *Drive) truncateJournalSector(addr journal.SectorAddr, prev journal.SectorAddr, id types.ObjectID, entries []journal.Entry, keep int) error {
	sector := make([]byte, journal.SectorSize)
	if keep > 0 {
		ptrs := make([]*journal.Entry, keep)
		for i := range ptrs {
			ptrs[i] = &entries[i]
		}
		enc, err := journal.EncodeSector(id, prev, ptrs)
		if err != nil {
			return err
		}
		copy(sector, enc)
	}
	// The chain walks that materialized inodes on the way here (loadInode
	// in recoverJournalSector) read this block through the cache; the
	// image they left there is about to stop matching the media.
	d.cache.drop(addr.Block())
	return d.log.PatchSettled(addr.Block(), addr.Slot()*journal.SectorSize, sector)
}

// vetSkippedHeads closes the scan's blind spot. ScanFrom only visits
// segments whose durable summary seq is newer than the checkpoint's,
// but the open-at-crash segment can carry a head-sector rewrite the
// scan never sees: a crash that cut the first post-checkpoint flush
// after its journal-block write left the segment's newest durable
// snapshot *older* than cpSeq, yet the rewritten sector — now holding
// entries no snapshot ever covered — is exactly where the checkpoint's
// object map points. Nothing replays those entries during recovery,
// but loadInode's full chain walk would, so they must be vetted and
// truncated here, before the usage passes walk any chain. Entries at
// or below the checkpointed version stay; a completed Sync would have
// advanced the snapshot seq past cpSeq, so everything above it is
// unacknowledged tail.
func (d *Drive) vetSkippedHeads(visited map[int64]bool) error {
	for id, o := range d.objects {
		if o.jhead == journal.NilSector {
			continue
		}
		seg := segOf(d.log, o.jhead.Block())
		if seg < 0 || visited[seg] {
			continue // the roll-forward scan vetted every sector there
		}
		gotID, prev, entries, err := journal.ReadSector(d.log, o.jhead)
		if err != nil && !errors.Is(err, types.ErrCorrupt) {
			return err // unread is not vetted
		}
		if err != nil || gotID != id {
			// Torn, rotted, or reused: the chain walks that need this
			// sector will report it; vetting has nothing to cut.
			continue
		}
		if _, err := d.vetSector(o.jhead, prev, id, entries, d.recSnapVer[id]); err != nil {
			return err
		}
	}
	return nil
}

func (d *Drive) recoverAuditBlock(addr seglog.BlockAddr, firstSeq uint64, lastTime types.Timestamp, cpAuditSeq uint64) {
	if firstSeq <= cpAuditSeq {
		// Flushed by the checkpoint or before it (it drains the audit
		// buffer): the object map lists the block, or the cleaner has
		// released it since and the scan is only meeting it again
		// because its segment went on being written.
		return
	}
	for _, r := range d.auditBlocks {
		// Matching firstSeq with a different address means the cleaner
		// relocated a block flushed since the checkpoint: both copies
		// hold the same records, so keep the first (the original, whose
		// segment the deferred-reuse barrier kept intact).
		if r.addr == addr || r.firstSeq == firstSeq {
			return
		}
	}
	if d.recTouched != nil {
		// Indexed recovery skips the recount that would classify this
		// freshly scanned audit block live; account it here.
		d.usage.liveBorn(segOf(d.log, addr))
	}
	d.auditBlocks = append(d.auditBlocks, auditBlockRef{addr: addr, firstSeq: firstSeq, lastTime: lastTime})
	// Recover the sequence counter past anything on disk.
	if firstSeq >= d.auditSeq {
		d.auditSeq = firstSeq + 1000 // conservative gap; seqs need only be increasing
	}
}

// recountUsage rebuilds per-segment live/history counters, the
// chain-sector index and every landmark index by classifying every
// on-disk block against the recovered object map. It is the reference
// the indexed path is diffed against and the fallback it degrades to,
// so it starts from nothing: whatever a preloaded index installed is
// overwritten.
func (d *Drive) recountUsage() error {
	d.usage.reset()
	d.jblockRef = make(map[seglog.BlockAddr]int)
	d.jstageAddr, d.jstageUsed = seglog.NilAddr, 0

	live := make(map[seglog.BlockAddr]bool)
	hist := make(map[seglog.BlockAddr]bool)
	for _, r := range d.auditBlocks {
		live[r.addr] = true
	}
	for _, o := range d.objects {
		if err := d.loadInode(o); err != nil {
			return err
		}
		for _, a := range o.ino.blocks {
			if o.ino.Deleted {
				hist[a] = true // until the cleaner reaps the object
			} else {
				live[a] = true
			}
		}
		for _, a := range o.cpBlocks {
			live[a] = true
		}
		// Walk the chain: in-chain sectors keep their shared journal
		// blocks live, entries above the floor pin their Old blocks, and
		// checkpoint entries above both floors rebuild the landmark index.
		o.landmarks = nil
		err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
			live[addr.Block()] = true
			d.jblockRef[addr.Block()]++
			d.recReplay += int64(len(entries))
			for i := range entries {
				e := &entries[i]
				// Entries at or below the floor released their Old blocks
				// long ago; the blocks may since have been recycled into
				// other objects' data, so a stale below-floor pointer must
				// not mark the current owner's block as history.
				if e.Version <= o.floorVersion {
					continue
				}
				if e.Type == journal.EntCheckpoint {
					ok, err := d.adoptLandmark(o, e, addr)
					if err != nil {
						return true, err
					}
					if ok {
						hist[e.InodeAddr] = true
					}
					continue
				}
				poolBlocks(e, func(a seglog.BlockAddr, _ bool) { hist[a] = true })
			}
			return false, nil
		})
		if err != nil {
			return err
		}
		sortLandmarks(o.landmarks)
	}

	nSeg := d.log.NumSegments()
	for seg := int64(0); seg < nSeg; seg++ {
		sum, _, err := d.log.ReadSummary(seg)
		if err != nil {
			return err
		}
		counted := false
		for i := range sum.Entries {
			addr := d.log.EntryAt(seg, i)
			switch {
			case live[addr]:
				d.usage.liveBorn(seg)
				counted = true
			case hist[addr]:
				d.usage.liveBorn(seg)
				d.usage.deprecate(seg)
				counted = true
			default:
				// Released history, superseded checkpoints, or blocks
				// orphaned by a crash: dead.
			}
		}
		if counted {
			d.log.MarkAllocated(seg)
		} else if seg != d.log.CurrentSegment() {
			if err := d.releaseSegmentLocked(seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// adoptLandmark indexes one chain EntCheckpoint entry if it is above
// both of the object's floors and its root still validates, and reports
// whether it did. A root the device could not read fails the open.
func (d *Drive) adoptLandmark(o *object, e *journal.Entry, sector journal.SectorAddr) (bool, error) {
	if !o.landmarkLive(e.Version) {
		return false, nil
	}
	if img, err := d.landmarkImage(o.id, e.Version, e.InodeAddr); img == nil {
		return false, err
	}
	o.landmarks = append(o.landmarks, landmark{time: e.Time, version: e.Version, root: e.InodeAddr, sector: sector})
	return true, nil
}

// ---- Indexed recovery (DESIGN.md §14) ----
//
// The preloaded counters and landmark indexes are exact for everything
// durable at the checkpoint, floors included; what is left is to apply
// what the replayed chain tails changed. Every rule mirrors a
// recountUsage classification — the recovery-equivalence battery in
// internal/torture diffs the two paths' full state.

// errIndexStale reports that the replayed tail refers to state the
// segment index cannot describe; recover() then falls back to the full
// recount.
var errIndexStale = errors.New("segment index stale")

// finishIndexedRecovery replaces recountUsage when recovery anchored at
// a persisted segment index. visited holds the segments the roll-
// forward scan found written after the checkpoint.
func (d *Drive) finishIndexedRecovery(idx *segIndex, visited map[int64]bool) error {
	// postCP reports whether a block was appended after the checkpoint:
	// anywhere in a segment opened since, or past the checkpoint-time
	// fill of the segment that was open then.
	postCP := func(a seglog.BlockAddr) bool {
		seg := segOf(d.log, a)
		if seg == idx.openSeg {
			return int64(a)-int64(d.log.EntryAt(seg, 0)) >= int64(idx.openUsed)
		}
		return visited[seg]
	}
	for id, o := range d.objects {
		// Account the post-checkpoint chain tail. Two kinds of object can
		// carry one: objects whose chains the scan advanced, and objects
		// whose checkpoint-time head sector sits in the segment that was
		// open when the checkpoint was taken — the head-merge flush path
		// rewrites that sector in place, so it can hold entries the
		// checkpoint never saw without any summary update the scan would
		// notice.
		pre := d.recPreJhead[id]
		if d.recTouched[id] || (pre != journal.NilSector && idx.openSeg >= 0 && segOf(d.log, pre.Block()) == idx.openSeg) {
			if err := d.accountReplayTail(o, postCP); err != nil {
				return err
			}
		}
		sortLandmarks(o.landmarks)
	}

	// Segments the tail emptied return to the allocator, as the
	// recount's sweep would have left them.
	nSeg := d.log.NumSegments()
	for seg := int64(0); seg < nSeg; seg++ {
		if d.log.IsFree(seg) || seg == d.log.CurrentSegment() {
			continue
		}
		if d.usage.reclaimable(seg) {
			if err := d.releaseSegmentLocked(seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// accountReplayTail walks one object's post-checkpoint chain tail
// (newest-first, stopping at the checkpoint-time head) and accounts the
// new sectors and the blocks their entries turned over. The walk also
// collects the tail entries so the delete/revive settlement can derive
// the object's checkpoint-time state by undoing them from the final
// inode: intermediate delete/revive pairs are net-zero (a deleted
// object admits no other mutation), so only the boundary states matter.
func (d *Drive) accountReplayTail(o *object, postCP func(seglog.BlockAddr) bool) error {
	preJhead := d.recPreJhead[o.id]
	snapVer := d.recSnapVer[o.id]
	hitPre := preJhead == journal.NilSector
	var tail []journal.Entry // entries above snapVer, newest-first
	err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		atPre := addr == preJhead
		if !atPre {
			// A sector the checkpoint had not seen: its shared journal
			// block joins the chain-sector index (the head-merge rewrite
			// of the old head sector stays at its old address and is
			// already counted).
			blk := addr.Block()
			d.jblockRef[blk]++
			if d.jblockRef[blk] == 1 && d.recCovered(blk) {
				d.usage.liveBorn(segOf(d.log, blk))
			}
		}
		d.recReplay += int64(len(entries))
		for i := len(entries) - 1; i >= 0; i-- {
			e := &entries[i]
			if ln := o.landmarkOf(e); ln != nil {
				// In the persisted index already; post-checkpoint chain
				// relocation may have moved its sector, so repoint it as
				// the relocation's re-registration would have.
				ln.sector = addr
			} else if e.Type == journal.EntCheckpoint && e.Version > snapVer {
				// A landmark of the tail: its root is history from birth.
				ok, err := d.adoptLandmark(o, e, addr)
				if err != nil {
					return true, err
				}
				if ok && d.recCovered(e.InodeAddr) {
					seg := segOf(d.log, e.InodeAddr)
					d.usage.liveBorn(seg)
					d.usage.deprecate(seg)
				}
			}
			if e.Version > snapVer {
				tail = append(tail, *e)
			}
		}
		hitPre = hitPre || atPre
		return atPre, nil
	})
	if err != nil {
		return err
	}
	// Blocks born inside the tail were never in the checkpoint counters.
	tailNew := make(map[seglog.BlockAddr]bool)
	for i := range tail {
		for _, nw := range tail[i].New {
			if nw != seglog.NilAddr {
				tailNew[nw] = true
			}
		}
	}
	// A block the tail retires that was appended after the checkpoint,
	// yet that no tail entry bore, is a copy the cleaner relocated in
	// memory only: the counters hold the original, which the crash
	// orphaned, and no delta rule can say where it was. Rare (a crash
	// between a relocating cleaner pass and its barrier checkpoint, on an
	// object overwritten in between), so recount instead.
	unborn := func(a seglog.BlockAddr) bool { return postCP(a) && !tailNew[a] }
	for i := range tail {
		if d.accountReplayEntry(&tail[i], unborn) {
			return fmt.Errorf("%w: %v v%d retires a block relocated after the checkpoint", errIndexStale, o.id, tail[i].Version)
		}
	}
	if !hitPre {
		// The walk never reached the old head: a post-checkpoint
		// relocation replaced the whole pre-checkpoint chain with
		// copies (already counted above as new sectors), so the
		// original sectors the preload counted are orphans now.
		err := d.walkChain(o, preJhead, func(addr, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
			blk := addr.Block()
			if d.jblockRef[blk] > 0 {
				d.jblockRef[blk]--
				if d.jblockRef[blk] == 0 {
					delete(d.jblockRef, blk)
					d.usage.freeLive(segOf(d.log, blk))
				}
			}
			return false, nil
		})
		if err != nil {
			return err
		}
	}
	// Delete/revive settlement. Undoing the collected tail from the
	// final inode yields the checkpoint-time state the persisted
	// counters describe; only the boundary deleted-ness matters.
	if o.ino == nil {
		if err := d.loadInode(o); err != nil {
			return err
		}
	}
	atC := o.ino
	if len(tail) > 0 {
		atC = o.ino.Clone()
		for i := range tail {
			atC.undo(&tail[i])
		}
	}
	if atC.Deleted {
		// The checkpoint counters hold this object's blocks in history
		// (its delete deprecated them); the tail's revive returned them
		// to live service. An index the tail's delta conversion turned
		// into a packed-slot reference resolves back to the original
		// address through the packed header; one the tail's retention
		// skip freed contributes nothing (the undo poisoned it and its
		// address survives only in the entry's Dropped list, handled
		// below). Blocks born inside the tail are excluded either way.
		for _, a := range atC.blocks {
			if isDeltaRef(a) {
				a = d.origOfRef(uint64(a))
			}
			if a != seglog.NilAddr && !tailNew[a] && d.recCovered(a) {
				d.usage.undeprecate(segOf(d.log, a))
			}
		}
		for i := range tail {
			for _, dr := range tail[i].Dropped {
				if dr != seglog.NilAddr && !tailNew[dr] && d.recCovered(dr) {
					d.usage.undeprecate(segOf(d.log, dr))
				}
			}
		}
	}
	if o.ino.Deleted {
		// The tail ends deleted: the final version's blocks leave live
		// service for the pool, where they wait for the reap.
		for _, a := range o.ino.blocks {
			if d.recCovered(a) {
				d.usage.deprecate(segOf(d.log, a))
			}
		}
	}
	return nil
}

// accountReplayEntry applies the block turnover of one replayed tail
// entry (always above the floor, so everything it deprecates joins the
// pool). It reports whether some block the entry retired from live
// service is unborn as far as the index can tell — the caller then
// abandons the indexed path, so the deltas already applied do not
// matter.
func (d *Drive) accountReplayEntry(e *journal.Entry, unborn func(seglog.BlockAddr) bool) (stale bool) {
	switch e.Type {
	case journal.EntCheckpoint, journal.EntCreate, journal.EntDelete, journal.EntRevive:
		// Landmarks are indexed during the walk; create allocates
		// nothing; delete/revive settle in closed form in
		// accountReplayTail.
		return false
	}
	retire := func(a seglog.BlockAddr, apply func(int64)) {
		if a == seglog.NilAddr {
			return
		}
		stale = stale || unborn(a)
		if d.recCovered(a) {
			apply(segOf(d.log, a))
		}
	}
	poolBlocks(e, func(a seglog.BlockAddr, packed bool) {
		if !packed {
			retire(a, d.usage.deprecate)
			return
		}
		// Conversion at runtime: the packed block was born into history,
		// and each slot's original full block left live service. Packed
		// blocks are entry-local, so every slot the header names belongs
		// to this entry.
		if !d.recCovered(a) {
			return
		}
		seg := segOf(d.log, a)
		d.usage.liveBorn(seg)
		d.usage.deprecate(seg)
		for _, og := range d.packedOrigs(a) {
			retire(seglog.BlockAddr(og), d.usage.freeLive)
		}
	})
	// Retention skips freed their outgoing blocks outright.
	for _, dr := range e.Dropped {
		retire(dr, d.usage.freeLive)
	}
	for _, nw := range e.New {
		if nw != seglog.NilAddr && d.recCovered(nw) {
			d.usage.liveBorn(segOf(d.log, nw))
		}
	}
	return stale
}

// recCovered reports whether a block is listed in its segment's durable
// summary. Usage counters follow the summary view: a crash can leave a
// tail block's payload durable while the summary write covering it was
// cut, and the full recount's sweep — which classifies exactly the
// summary-listed blocks — never counts such a block even though chains
// still reference it. Indexed recovery applies the same rule: chain
// refcounts and landmark entries are recorded unconditionally, but
// liveBorn/deprecate/freeLive deltas fire only for covered blocks.
// Everything durable at the checkpoint is covered (WriteCheckpoint
// follows a full Sync), so only post-checkpoint tail blocks can miss.
// The roll-forward scan recorded the count of every segment it replayed;
// any other segment costs one count-only lookup.
func (d *Drive) recCovered(addr seglog.BlockAddr) bool {
	seg := segOf(d.log, addr)
	n, ok := d.recSumCover[seg]
	if !ok {
		var err error
		if n, err = d.log.Covered(seg); err != nil && seg >= 0 {
			if d.recErr == nil {
				d.recErr = err
			}
			return false
		}
		d.recSumCover[seg] = n
	}
	i := int64(addr) - int64(d.log.EntryAt(seg, 0))
	return i >= 0 && i < int64(n)
}
