package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	stdlog "log"
	"maps"
	"math"
	"time"

	"s4/internal/codec"
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
// beyond each object's checkpointed version, then rebuild segment usage
// against a base (DESIGN.md §14.2). The base is the persisted segment
// index when it is usable: the checkpoint-time counters, journal-block
// refcounts and landmark indexes, which only the objects the replayed
// tail touched can have moved. Otherwise it is the empty base, which
// names nothing, so every object is accounted from its whole chain —
// the LFS-style full scan. One function, accountObject, moves each block
// an object names from its class in the base to its class now, on
// either base; the torture battery proves the two land on identical
// state.
//
// Either way recovery is a function of the image alone. A deprecated
// block is in the history pool iff a retained journal entry above its
// object's floor pins it (poolBlocks), or it is a final block of a
// deleted object not yet reaped — which is the state
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
		if err := d.checkpointObjectLocked(o); err != nil {
			return err
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
	room := d.log.CheckpointCapacity() - len(imap)
	idx := d.encodeSegIndexLocked(true)
	if len(idx) > room {
		// The images go first: the next open loads from the log what
		// it would have loaded from them.
		idx = d.encodeSegIndexLocked(false)
	}
	if len(idx) > room {
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
	buf := binary.LittleEndian.AppendUint32(nil, imapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, imapVersion)
	buf = binary.AppendUvarint(buf, uint64(d.nextOID))
	buf = binary.AppendUvarint(buf, uint64(d.window))
	buf = binary.AppendUvarint(buf, d.auditSeq)
	buf = binary.AppendUvarint(buf, uint64(len(d.auditBlocks)))
	for _, r := range d.auditBlocks {
		buf = binary.AppendUvarint(buf, uint64(r.addr))
		buf = binary.AppendUvarint(buf, r.firstSeq)
		buf = binary.AppendUvarint(buf, uint64(r.lastTime))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.objects)))
	for _, id := range d.objOrder {
		o := d.objects[id]
		buf = binary.AppendUvarint(buf, uint64(o.id))
		buf = binary.AppendUvarint(buf, o.nextVersion)
		buf = binary.AppendUvarint(buf, uint64(o.inodeRoot))
		buf = binary.AppendUvarint(buf, uint64(len(o.cpBlocks)))
		for _, a := range o.cpBlocks {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
		buf = binary.AppendUvarint(buf, o.cpVersion)
		buf = binary.AppendUvarint(buf, uint64(o.jhead))
		buf = binary.AppendUvarint(buf, uint64(o.jtail))
		buf = binary.AppendUvarint(buf, o.floorVersion)
		buf = binary.AppendUvarint(buf, uint64(o.floorTime))
		buf = binary.AppendUvarint(buf, o.lmFloor)
		pruned := uint64(0)
		if o.pruned {
			pruned = 1
		}
		buf = binary.AppendUvarint(buf, pruned)
	}
	return buf
}

// imapObjectSize is the shortest encoding of one object in the map:
// eleven one-byte varints.
const imapObjectSize = 11

// decodeImap installs an object-map checkpoint into a freshly opened
// drive. Every failure wraps types.ErrCorrupt and leaves the drive
// untouched: nothing is installed until the whole blob has decoded.
func (d *Drive) decodeImap(data []byte) error {
	r := codec.NewReader("core: object map", data)
	if r.U32() != imapMagic {
		return r.Fail("bad magic")
	}
	if v := r.U32(); v != imapVersion {
		return r.Fail("checkpoint version %d, this build reads %d", v, imapVersion)
	}
	nextOID := types.ObjectID(r.Uvarint())
	window := time.Duration(r.Uvarint())
	auditSeq := r.Uvarint()
	auditBlocks := make([]auditBlockRef, r.Count(r.Uvarint(), 3, 0))
	for i := range auditBlocks {
		auditBlocks[i] = auditBlockRef{addr: seglog.BlockAddr(r.Uvarint()), firstSeq: r.Uvarint(), lastTime: types.Timestamp(r.Uvarint())}
	}
	objs := make([]*object, r.Count(r.Uvarint(), imapObjectSize, 0))
	for i := range objs {
		o := &object{id: types.ObjectID(r.Uvarint()), nextVersion: r.Uvarint(), inodeRoot: seglog.BlockAddr(r.Uvarint())}
		if i > 0 && o.id <= objs[i-1].id {
			r.Fail("out of order at %v", o.id)
		}
		for n := r.Count(r.Uvarint(), 1, 0); n > 0; n-- {
			o.cpBlocks = append(o.cpBlocks, seglog.BlockAddr(r.Uvarint()))
		}
		o.cpVersion = r.Uvarint()
		o.jhead = journal.SectorAddr(r.Uvarint())
		o.jtail = journal.SectorAddr(r.Uvarint())
		o.floorVersion = r.Uvarint()
		o.floorTime = types.Timestamp(r.Uvarint())
		o.lmFloor = r.Uvarint()
		o.pruned = r.Uvarint() != 0
		objs[i] = o
	}
	if err := r.Done(); err != nil {
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
// roll-forward, and the usage rebuild against the persisted segment
// index when it is usable and against the empty base otherwise.
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
	// The replayed tail is vetted on either base: what the checkpoint
	// covered (recSnapVer) is exempt, the rest is checked against its
	// segment's durable summary (recSumCover).
	d.recSumCover = make(map[int64]int)
	d.recDrop = make(map[types.ObjectID]uint64)
	d.recTouched = make(map[types.ObjectID]bool)
	d.recSectors = make(map[journal.SectorAddr]recSector)
	d.recSnapVer = make(map[types.ObjectID]uint64, len(d.objects))
	for id, o := range d.objects {
		d.recSnapVer[id] = o.nextVersion - 1
	}
	// The images go in once, here: a stale index's fallback reinstalls
	// the base after the scan has redone the tail on top of them.
	idx := d.loadSegIndex(idxBlob, ok)
	if idx != nil {
		d.recImages, d.recIndex = idx.images, idx
	}
	base := d.installBase(idx)
	// Roll forward: visit segments written after the checkpoint in
	// sequence order, relinking journal chains and redoing entries.
	visited := make(map[int64]bool)
	cpAuditSeq := d.auditSeq
	var jbuf []byte // the journal blocks the scan did not hand over, a run at a time
	err = d.log.ScanFrom(cpSeq, func(seg int64, sum seglog.Summary, payload []byte) error {
		visited[seg] = true
		d.recSumCover[seg] = len(sum.Entries)
		d.log.MarkAllocated(seg)
		d.log.SetSeq(sum.Seq)
		run := payload // the blocks from entry at on, entry i at (i-at)*BlockSize
		at := 0
		for i, e := range sum.Entries {
			addr := d.log.EntryAt(seg, i)
			switch e.Kind {
			case seglog.KindJournal:
				if payload == nil && i >= at+len(run)/seglog.BlockSize {
					// Adjacent journal blocks are one read, as long as each
					// but the last is fetched whole anyway: the run costs
					// the bytes of its blocks read one by one.
					n := 1
					for j := i; j+1 < len(sum.Entries) && sum.Entries[j+1].Kind == seglog.KindJournal && sum.Entries[j].ReadSize() == seglog.BlockSize; j++ {
						n++
					}
					if len(jbuf) < n*seglog.BlockSize {
						jbuf = make([]byte, n*seglog.BlockSize)
					}
					run, at = jbuf[:n*seglog.BlockSize], i
					if err := d.log.ReadRun(addr, n, run); err != nil {
						return err
					}
				}
				if err := d.recoverJournalBlock(addr, run[(i-at)*seglog.BlockSize:(i-at+1)*seglog.BlockSize]); err != nil {
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
	base.visited = visited
	if err = d.rebuildUsage(base); errors.Is(err, errIndexStale) {
		base = d.installBase(d.rejectSegIndex(err.Error()))
		err = d.rebuildUsage(base)
	} else if err == nil && base.idx != nil {
		d.stats.IndexLoads++
	}
	if err == nil {
		err = d.recErr // a coverage probe the usage rebuild could not finish
	}
	if err != nil {
		return err
	}
	// Either base ends with aging unscheduled, so the first cleaner pass
	// visits every object: that pass, not this function, releases
	// whatever left the window while the drive was down.
	for _, o := range d.objects {
		o.nextAge = 0
	}
	d.recSnapVer, d.recTouched, d.recSectors, d.recSumCover, d.recDrop, d.recImages, d.recIndex = nil, nil, nil, nil, nil, nil, nil
	// Evict down to the configured object-cache budget.
	return d.evictColdLocked()
}

// rejectSegIndex records one fallback from the persisted segment index
// to the empty base, and why.
func (d *Drive) rejectSegIndex(why string) *segIndex {
	d.stats.IndexFallbacks++
	stdlog.Printf("core: %s; falling back to full-scan recovery", why)
	return nil
}

// loadSegIndex decides whether recovery may take the persisted segment
// index for its base. Any reason it cannot — index absent, undecodable,
// or naming a different object set than the object map it rode with —
// counts as a fallback to the empty base. DisableSegIndex is a
// deliberate request for the empty base, not a fallback.
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

// recBase is what recovery's usage rebuild accounts the recovered state
// against. idx nil is the empty base: no counters, refcounts, landmarks
// or chains, so every object is accounted from its whole chain.
// Otherwise the usage tables and landmark indexes hold the persisted
// segment index, which counted each object's chain down from heads[id]
// and its entries up to vers[id], and the first audit blocks.
type recBase struct {
	idx     *segIndex
	heads   map[types.ObjectID]journal.SectorAddr
	vers    map[types.ObjectID]uint64
	audit   int
	visited map[int64]bool // the segments the roll-forward scan replayed
}

// installBase sets the usage tables, the journal-block refcounts and
// every landmark index to what idx recorded at the checkpoint — to
// nothing when idx is nil — and returns the base. It runs before the
// roll-forward scan, and again after it when the index proves stale.
func (d *Drive) installBase(idx *segIndex) *recBase {
	b := &recBase{idx: idx}
	d.usage = newSegUsage(d.log.NumSegments())
	d.jblockRef = make(map[seglog.BlockAddr]int)
	d.jstageAddr, d.jstageUsed = seglog.NilAddr, 0
	for _, o := range d.objects {
		o.landmarks = nil
	}
	if idx == nil {
		return b
	}
	for seg, s := range idx.segs {
		d.usage.add(int64(seg), s.live, s.hist)
	}
	maps.Copy(d.jblockRef, idx.jrefs)
	b.heads = make(map[types.ObjectID]journal.SectorAddr, len(d.objects))
	b.vers, b.audit = d.recSnapVer, len(d.auditBlocks)
	for id, o := range d.objects {
		b.heads[id] = o.jhead
		o.landmarks = append([]landmark(nil), idx.objects[id]...)
	}
	return b
}

// recSector is one journal sector the roll-forward scan decoded, as
// vetSector left it.
type recSector struct {
	id      types.ObjectID
	prev    journal.SectorAddr
	entries []journal.Entry
}

// recoverJournalBlock relinks every sector of one flushed journal block,
// whose bytes are buf, and redoes entries newer than the owning objects'
// checkpointed versions. Slots are processed in order, which preserves
// chronology. Decoded entries do not alias buf.
func (d *Drive) recoverJournalBlock(addr seglog.BlockAddr, buf []byte) error {
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
	// The media now holds exactly this, and nothing rewrites a sector of
	// a replayed segment again before recover() returns.
	d.recSectors[addr] = recSector{id: id, prev: prev, entries: entries}
	newest := entries[len(entries)-1].Version
	if newest <= d.recSnapVer[id] {
		// A pre-checkpoint sector re-synced inside a newer segment: the
		// checkpoint covers it, so there is nothing to redo. Loading the
		// inode here would walk the chain from its checkpoint-time head,
		// which a head merge since may have rewritten, in a block the scan
		// has not reached: the load would redo an entry that the vetting
		// of that sector is about to cut.
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
	d.recTouched[id] = true
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
// their segments reused since — aged history — which is not the crash
// cutting a flush. Chain relocation
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
// unacknowledged tail. A head in a segment sealed at the checkpoint
// (sealedAtCheckpoint) has not been rewritten since, so it is not read.
func (d *Drive) vetSkippedHeads(visited map[int64]bool) error {
	var scratch []byte
	for id, o := range d.objects {
		if o.jhead == journal.NilSector {
			continue
		}
		seg := segOf(d.log, o.jhead.Block())
		if seg < 0 || visited[seg] || d.sealedAtCheckpoint(seg) {
			continue // the roll-forward scan vetted every sector there, or none was rewritten
		}
		prev, entries, err := d.readJSector(id, o.jhead, &scratch)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				return err // unread is not vetted
			}
			// Torn, rotted, reused or another object's: the chain walks
			// that need this sector will report it; vetting has nothing
			// to cut.
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
	// Every ref the checkpoint listed sorts below firstSeq, so only the
	// tail's can match. A match means the cleaner relocated a block
	// flushed since the checkpoint: both copies hold the same records, so
	// keep the first (the original, whose segment the deferred-reuse
	// barrier kept intact).
	if auditRefIndex(d.auditBlocks, firstSeq) >= 0 {
		return
	}
	d.auditBlocks = append(d.auditBlocks, auditBlockRef{addr: addr, firstSeq: firstSeq, lastTime: lastTime})
	// Recover the sequence counter past anything on disk.
	if firstSeq >= d.auditSeq {
		d.auditSeq = firstSeq + 1000 // conservative gap; seqs need only be increasing
	}
}

// ---- The usage rebuild (DESIGN.md §14.2) ----

// errIndexStale reports that the replayed tail retires a block the
// segment index cannot describe; recover() then rebuilds from the empty
// base.
var errIndexStale = errors.New("segment index stale")

// rebuildUsage accounts what the base does not describe: on the empty
// base every object; on the index the objects whose chains the scan
// advanced, and those whose head sector sits in the segment open at the
// checkpoint (the head-merge flush rewrites that sector in place, with
// no summary update the scan would notice); on both the audit blocks
// past the base's. Then one sweep: a segment that holds counts is
// allocated, and every other one that is not free returns to the
// allocator, the open segment excepted.
func (d *Drive) rebuildUsage(b *recBase) error {
	for _, id := range d.objOrder {
		head := segOf(d.log, b.heads[id].Block())
		if b.idx != nil && !d.recTouched[id] && (head < 0 || head != b.idx.openSeg) {
			continue
		}
		if err := d.accountObject(d.objects[id], b); err != nil {
			return err
		}
	}
	for _, r := range d.auditBlocks[b.audit:] {
		if d.recCovered(r.addr) {
			d.usage.liveBorn(segOf(d.log, r.addr))
		}
	}
	for seg := int64(0); seg < d.log.NumSegments(); seg++ {
		switch {
		case !d.usage.reclaimable(seg):
			d.log.MarkAllocated(seg)
		case !d.log.IsFree(seg) && seg != d.log.CurrentSegment():
			if err := d.releaseSegmentLocked(seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// accountObject moves each block o names from its class in the base to
// its class now (blockClass), for the blocks recCovered accepts. It
// walks o's chain from the head down to the base's head, or to the
// sector that links to it when a sealed segment held it — all of it on
// the empty base — counting the sectors the base did not and indexing
// the landmarks above the base whose images decode, which reads nothing:
// the image rides the entry in hand. What names a block:
//
//   - now: the final inode (live; history until the reap once deleted),
//     the object's checkpoint (live), and each walked entry above both
//     the base and the floor, whose pool blocks (poolBlocks) are
//     history;
//   - the index base: the checkpoint (live) and the checkpoint-time
//     inode, which undoing the walked tail from the final one gives:
//     the final inode's blocks and every block the tail retired, less
//     those the tail bore, live — or history if it was deleted then.
//
// A walk that does not end at the base's head ends where the chain
// does, and that sector is jtail: a relocation since the checkpoint can
// have replaced the sector the object map names.
func (d *Drive) accountObject(o *object, b *recBase) error {
	if err := d.loadInode(o); err != nil {
		return err
	}
	const inBase, inNow = 0, 1
	cls := make(map[seglog.BlockAddr][2]blockClass)
	name := func(side int, a seglog.BlockAddr, c blockClass) {
		if a != seglog.NilAddr {
			k := cls[a]
			k[side] = max(k[side], c)
			cls[a] = k
		}
	}
	head, baseVer := b.heads[o.id], b.vers[o.id]
	// A head sealed at the checkpoint is as the base saw it; one in the
	// then-open segment may have taken head merges since.
	sealedHead := head != journal.NilSector && segOf(d.log, head.Block()) != b.idx.openSeg
	var tail []*journal.Entry // the walked entries above the base, newest first
	last, met := journal.NilSector, false
	err := d.walkChain(o, o.jhead, func(addr, prev journal.SectorAddr, entries []journal.Entry) (bool, error) {
		last, met = addr, addr == head
		if blk := addr.Block(); !met {
			if d.jblockRef[blk]++; d.jblockRef[blk] == 1 && d.recCovered(blk) {
				d.usage.liveBorn(segOf(d.log, blk))
			}
		}
		d.recReplay += int64(len(entries))
		for i := len(entries) - 1; i >= 0; i-- {
			e := &entries[i]
			switch {
			case e.Version <= baseVer:
				// Indexed already, if a landmark; a relocation since the
				// checkpoint may have moved its sector.
				if ln := o.landmarkOf(e); ln != nil {
					ln.sector = addr
				}
			case e.Version <= o.floorVersion:
				// Its pool blocks were released long ago and may since
				// hold another object's data.
			case e.Type != journal.EntCheckpoint:
				poolBlocks(e, func(a seglog.BlockAddr, _ bool) { name(inNow, a, classHist) })
				tail = append(tail, e)
			case o.landmarkLive(e.Version) && landmarkImage(o.id, e) != nil:
				o.landmarks = append(o.landmarks, landmark{time: e.Time, version: e.Version, sector: addr})
			}
		}
		met = met || sealedHead && prev == head
		return met, nil
	})
	if err != nil {
		return err
	}
	if head != journal.NilSector && !met {
		// A relocation since the checkpoint replaced the chain the base
		// counted with copies, which the walk counted: the originals are
		// orphans.
		err := d.walkChain(o, head, func(addr, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
			if d.jblockRef[addr.Block()] > 0 {
				d.unrefJSector(addr)
			}
			return false, nil
		})
		if err != nil {
			return err
		}
	}
	if !met && last != journal.NilSector {
		o.jtail = last
	}

	final := classLive
	if o.ino.Deleted {
		final = classHist
	}
	for _, a := range o.ino.blocks {
		name(inNow, a, final)
	}
	for _, a := range o.cpBlocks {
		name(inNow, a, classLive)
		if b.idx != nil {
			name(inBase, a, classLive)
		}
	}
	if b.idx != nil {
		born := make(map[seglog.BlockAddr]bool)
		was := final
		for _, e := range tail {
			for _, a := range e.New {
				born[a] = true
			}
			switch e.Type {
			case journal.EntDelete:
				was = classLive
			case journal.EntRevive:
				was = classHist
			}
		}
		for _, a := range o.ino.blocks {
			if !born[a] {
				name(inBase, a, was)
			}
		}
		for _, e := range tail {
			stale := false
			retired := func(a seglog.BlockAddr) {
				if a != seglog.NilAddr && !born[a] {
					stale = stale || b.postCP(d.log, a)
					name(inBase, a, was)
				}
			}
			poolBlocks(e, func(a seglog.BlockAddr, packed bool) {
				if !packed {
					retired(a)
					return
				}
				for _, og := range d.packedOrigs(a) {
					retired(seglog.BlockAddr(og))
				}
			})
			for _, dr := range e.Dropped {
				retired(dr)
			}
			if stale {
				// The cleaner's relocated copy, moved in memory only: the
				// counters hold the original, which the crash orphaned, and
				// no base says where it was, so start from nothing. Not
				// rare: a crash between a relocating cleaner pass and its
				// barrier checkpoint, on an object overwritten in between,
				// is the usual crash of a drive whose cleaner copies hot
				// blocks forward (the rpc_hot_mix benchmark's reopen takes
				// this path every run). Objects loaded from the index's
				// images keep the tail the scan redid on them.
				return fmt.Errorf("%w: %v v%d retires a block relocated after the checkpoint", errIndexStale, o.id, e.Version)
			}
		}
	}
	for a, k := range cls {
		if k[inBase] != k[inNow] && d.recCovered(a) {
			d.usage.move(segOf(d.log, a), k[inBase], k[inNow])
		}
	}
	sortLandmarks(o.landmarks)
	return nil
}

// postCP reports whether block a was appended after the checkpoint:
// anywhere in a segment the scan replayed, or past the checkpoint-time
// fill of the segment that was open then.
func (b *recBase) postCP(log *seglog.Log, a seglog.BlockAddr) bool {
	seg := segOf(log, a)
	if seg == b.idx.openSeg {
		return int64(a)-int64(log.EntryAt(seg, 0)) >= int64(b.idx.openUsed)
	}
	return b.visited[seg]
}

// recCovered reports whether a block is listed in its segment's durable
// summary. Usage counters follow the summary view: a crash can leave a
// tail block's payload durable while the summary write covering it was
// cut, and such a block is never counted even though chains still
// reference it. Chain refcounts and landmark entries are recorded
// unconditionally, but the rebuild moves counters only for covered
// blocks. Everything durable at the checkpoint is covered
// (WriteCheckpoint follows a full Sync), so only post-checkpoint tail
// blocks can miss.
// The roll-forward scan recorded the count of every segment it replayed.
// A segment sealed at the checkpoint is listed whole (sealedAtCheckpoint).
// Any other segment costs one count-only lookup.
func (d *Drive) recCovered(addr seglog.BlockAddr) bool {
	seg := segOf(d.log, addr)
	n, ok := d.recSumCover[seg]
	if !ok && d.sealedAtCheckpoint(seg) {
		n, ok = d.log.PayloadBlocks(), true
	}
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

// sealedAtCheckpoint reports whether the checkpoint's segment index lists
// seg as allocated and not open: sealed then, its seal listing every
// slot, and not reused since, because the deferred-reuse barrier frees a
// segment only at a later checkpoint, whose slot would have won instead.
// Nothing has been written to such a segment since the checkpoint, so
// the scan never replays it, and its summary answers nothing the index
// did not (DESIGN.md §14.6).
func (d *Drive) sealedAtCheckpoint(seg int64) bool {
	return seg >= 0 && d.recIndex != nil && !d.recIndex.segs[seg].free && seg != d.recIndex.openSeg
}
