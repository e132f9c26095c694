package core

import (
	"errors"
	"sort"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// The S4 cleaner (§4.2.1, §5.1.3).
//
// Unlike an LFS cleaner, deprecated data cannot be reclaimed merely
// because it is dead — it must also have aged out of the detection
// window. The cleaner therefore works object-first:
//
//  1. Aging: walk each object's journal chain; entries older than the
//     window release the block pointers they deprecated, and journal
//     sectors whose entries have all aged are unlinked from the chain
//     (the per-object floor guarantees reads never reach freed state).
//     An aged delete entry evaporates the whole object.
//  2. Reclamation: segments whose live and history counts are both zero
//     return to the free pool.
//  3. Compaction: mostly-empty segments with no in-window content are
//     drained by copying their live blocks forward, then freed. Because
//     journal-based metadata reconstructs old versions from the current
//     state plus undo records, moving a live block only updates the
//     current block map — history is untouched (§4.2.2). Objects whose
//     blocks moved are re-checkpointed before the segment is freed so
//     crash recovery never replays stale addresses.
//
// The cleaner runs in bounded steps (CleanOnce) so the harness can
// interleave it with foreground work; its I/O shares the device and the
// virtual clock, which is exactly how it competes with foreground
// traffic in Fig. 5.

// CleanStats reports one cleaning pass's work.
type CleanStats struct {
	ObjectsAged     int
	EntriesAged     int
	BlocksAgedOut   int
	SectorsFreed    int
	ObjectsReaped   int
	SegmentsFreed   int
	SegmentsCleaned int
	BlocksCopied    int
}

// CleanOnce performs one bounded cleaning pass and reports what it did.
// It holds the exclusive drive lock throughout: that is the mutual
// exclusion the lock-free history read path relies on — no sector or
// block it might free can be mid-walk, because walkers hold the shared
// lock for their whole operation.
func (d *Drive) CleanOnce() (CleanStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var cs CleanStats
	if d.closed {
		return cs, types.ErrDriveStopped
	}
	d.statsMu.Lock()
	d.stats.CleanerRuns++
	d.statsMu.Unlock()
	ageCut := vclock.TS(d.clk) - types.Timestamp(d.window)

	// Phase 1: age history out of the window, a bounded batch of
	// objects per pass. Go's randomized map iteration spreads passes
	// across the population without the cost of maintaining a sorted
	// cursor; the per-object nextAge schedule makes unripe visits
	// nearly free, so the batch can be generous.
	const maxObjects = 4096
	visited := 0
	for _, o := range d.objects {
		if visited >= maxObjects {
			break
		}
		visited++
		// Reaping deletes from d.objects; Go permits deletion during
		// map iteration.
		reaped, err := d.ageObjectLocked(o, ageCut, &cs)
		if err != nil {
			return cs, err
		}
		if reaped {
			cs.ObjectsReaped++
		}
	}

	// Phase 1b: audit blocks whose newest record has left the window
	// are released (the audit log serves intrusion diagnosis; beyond
	// the window its guarantee has lapsed, like any history).
	d.auditMu.Lock()
	kept := d.auditBlocks[:0]
	for _, r := range d.auditBlocks {
		if r.lastTime < ageCut {
			d.usage.freeLive(segOf(d.log, r.addr))
			d.cache.drop(r.addr)
		} else {
			kept = append(kept, r)
		}
	}
	d.auditBlocks = kept
	d.auditMu.Unlock()

	// Phase 2: reclaim empty segments.
	if err := d.reclaimSegmentsLocked(&cs); err != nil {
		return cs, err
	}

	// Phase 3: compact up to a few fragmented segments. Compaction
	// appends relocated blocks, so on a nearly full drive it can run
	// out of room mid-pass; the aging and reclamation already done
	// still stand, and the next pass retries with whatever they freed.
	if err := d.compactLocked(ageCut, &cs, 4); err != nil && !errors.Is(err, types.ErrNoSpace) {
		return cs, err
	}
	// Checkpoint barrier: emptied segments rejoin the allocator only
	// once the object map on disk has stopped referencing them. The
	// threshold amortizes the barrier cost over a batch of segments,
	// tightening when the allocator runs low.
	drainAt := int(d.log.NumSegments() / 32)
	if drainAt < 4 {
		drainAt = 4
	}
	if len(d.pendingFree) >= drainAt || (len(d.pendingFree) > 0 && d.log.FreeSegments() < d.log.NumSegments()/10) {
		if err := d.checkpointLocked(); err != nil {
			if !errors.Is(err, types.ErrNoSpace) {
				return cs, err
			}
			// Emptied segments stay deferred; a later pass drains them
			// once aging or reclamation has restored some headroom.
		}
	}
	d.statsMu.Lock()
	d.stats.SegmentsFreed += int64(cs.SegmentsFreed)
	d.stats.BlocksCompacted += int64(cs.BlocksCopied)
	d.statsMu.Unlock()
	return cs, nil
}

// deferFree queues an emptied segment for release at the next
// checkpoint barrier. A still-durable checkpoint or journal chain may
// reference blocks in the segment until that barrier commits, so
// releasing early lets new appends clobber state recovery depends on —
// UnsafeImmediateReuse opts into exactly that fault so the torture
// harness can demonstrate the corruption it causes.
func (d *Drive) deferFree(seg int64) {
	if d.opts.UnsafeImmediateReuse {
		_ = d.log.FreeSegment(seg)
		return
	}
	d.pendingFree[seg] = true
}

// ageObjectLocked releases o's history older than ageCut. It returns
// true if the object itself was reaped (its deletion aged out).
func (d *Drive) ageObjectLocked(o *object, ageCut types.Timestamp, cs *CleanStats) (bool, error) {
	// A retention policy with its own window overrides the drive-wide
	// cut for this object. Only this function applies either: recovery
	// rebuilds the pool by the floor it leaves behind.
	win := d.effectiveWindow(o.id)
	if win != d.window {
		ageCut = vclock.TS(d.clk) - types.Timestamp(win)
	}
	if o.nextAge != 0 && ageCut < o.nextAge-types.Timestamp(win) {
		// Nothing can have aged since the last pass.
		return false, nil
	}
	if err := d.loadInode(o); err != nil {
		return false, err
	}
	// A deleted object whose death has aged out evaporates entirely.
	if o.ino.Deleted && o.ino.DeadTime != 0 && o.ino.DeadTime < ageCut && len(o.pending) == 0 {
		return true, d.reapObjectLocked(o, cs)
	}
	if o.jhead == journal.NilSector {
		return false, nil
	}
	// Read the chain oldest-last; collect sector addresses and entries.
	type sec struct {
		addr    journal.SectorAddr
		entries []journal.Entry
	}
	var chain []sec
	err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		chain = append(chain, sec{addr, entries})
		return false, nil
	})
	if err != nil {
		return false, err
	}
	touched := false
	minRetained := types.Timestamp(1 << 62)
	// Phase A: release history deprecated by aged entries, oldest
	// first so the floor rises monotonically.
	for i := len(chain) - 1; i >= 0; i-- {
		for j := range chain[i].entries {
			e := &chain[i].entries[j]
			if e.Time >= ageCut || e.Version <= o.floorVersion {
				if e.Time >= ageCut && e.Time < minRetained {
					minRetained = e.Time
				}
				continue
			}
			// The pointers this entry deprecated only support versions
			// older than the window; free them. Raising the floor in the
			// same step is what takes them out of the pool: the floor is
			// persisted with the object map, so no recovery counts them
			// again and no later pass releases them twice.
			d.ageOutOldLocked(e, cs)
			o.floorVersion = e.Version
			if e.Time > o.floorTime {
				o.floorTime = e.Time
			}
			cs.EntriesAged++
			touched = true
		}
	}
	// Landmark checkpoints age with the entries around them: their roots
	// are freed index-first (idempotent — a root leaves the index the
	// moment it is freed), and reconstructions now below the floor leave
	// the inode-at-time cache. Any sector Phase B prunes below holds
	// only sub-ageCut entries, so its landmarks are already gone.
	d.dropLandmarksBelowFloor(o)
	d.recon.dropBelow(o.id, o.floorTime)
	// Phase B: unlink trailing fully-aged sectors from the chain.
	allAged := func(s sec) bool {
		for j := range s.entries {
			if s.entries[j].Time >= ageCut {
				return false
			}
		}
		return true
	}
	// Count the trailing fully-aged sectors; pruning them requires an
	// inode checkpoint (the journal alone no longer rebuilds the
	// object), so it only pays off for long chains — short fully-aged
	// chains stay as cheap packed sectors and move via relocation.
	prunable := 0
	for i := len(chain) - 1; i > 0; i-- {
		if !allAged(chain[i]) {
			break
		}
		prunable++
	}
	const pruneThreshold = 8 // sectors; ~one checkpoint block's worth
	if prunable >= pruneThreshold {
		// Crash recovery must be anchored by a checkpoint covering the
		// retired entries before any sector leaves the chain.
		switch err := d.checkpointObjectLocked(o); {
		case err == nil:
			for i := len(chain) - 1; i >= len(chain)-prunable; i-- {
				d.unrefJSector(chain[i].addr)
				cs.SectorsFreed++
				o.jtail = chain[i-1].addr
				o.pruned = true
				touched = true
			}
		case errors.Is(err, types.ErrNoSpace):
			// No room for the anchoring checkpoint. Pruning is an
			// optimization; aborting the whole cleaning pass here would
			// wedge a full drive (the aging and reclamation that free
			// space need no log writes). Skip it this pass.
		default:
			return false, err
		}
	}
	if touched {
		cs.ObjectsAged++
	}
	// Schedule the next useful pass: nothing frees before the oldest
	// retained entry leaves the window. A fully-aged chain has nothing
	// left to free until a new entry arrives (appendEntry lowers the
	// schedule when one does).
	if minRetained == 1<<62 {
		o.nextAge = 1 << 62
	} else {
		o.nextAge = minRetained + types.Timestamp(win)
	}
	return false, nil
}

// reapObjectLocked removes an object whose deletion aged out of the
// window: final-version blocks, checkpoints, and the whole journal
// chain are freed, and the object disappears from the map.
func (d *Drive) reapObjectLocked(o *object, cs *CleanStats) error {
	d.retireLandmarks(o)
	d.recon.dropObject(o.id)
	for _, a := range o.ino.blocks {
		// These were deprecated at delete time.
		d.usage.ageOut(segOf(d.log, a))
		d.cache.drop(a)
		cs.BlocksAgedOut++
	}
	for _, a := range o.cpBlocks {
		d.usage.freeLive(segOf(d.log, a))
		d.cache.drop(a)
	}
	err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		// Any not-yet-aged deprecations inside the chain also release
		// their blocks now: every version of this object is gone.
		for i := range entries {
			e := &entries[i]
			if e.Version > o.floorVersion {
				d.ageOutOldLocked(e, cs)
			}
		}
		d.unrefJSector(addr)
		cs.SectorsFreed++
		return false, nil
	})
	if err != nil {
		return err
	}
	if o.ino != nil {
		d.loaded.Add(-1)
	}
	d.lruMu.Lock()
	d.objLRU.Remove(o.lruEl)
	d.lruMu.Unlock()
	d.markClean(o)
	delete(d.objects, o.id)
	return nil
}

// reclaimSegmentsLocked frees every fully empty segment.
func (d *Drive) reclaimSegmentsLocked(cs *CleanStats) error {
	nSeg := d.log.NumSegments()
	cur := d.log.CurrentSegment()
	for seg := int64(0); seg < nSeg; seg++ {
		if seg == cur || d.pendingFree[seg] {
			continue
		}
		live, hist := d.usage.occupancy(seg)
		if live == 0 && hist == 0 && !d.log.IsFree(seg) {
			d.deferFree(seg)
			cs.SegmentsFreed++
		}
	}
	return nil
}

// compactLocked drains up to maxSegs fragmented segments by copying
// their live blocks to the log head.
func (d *Drive) compactLocked(ageCut types.Timestamp, cs *CleanStats, maxSegs int) error {
	type cand struct {
		seg  int64
		live int32
	}
	nSeg := d.log.NumSegments()
	cur := d.log.CurrentSegment()
	payload := int32(d.log.PayloadBlocks())
	// Under space pressure any non-full segment is fair game; with
	// plenty of free segments only cheap (mostly empty) victims are
	// worth moving — the classic cost-benefit trade. Journal-bearing
	// segments are relocated only under pressure: their chains re-land
	// at the log head, so eager relocation would just churn them.
	limit := payload / 4
	pressed := d.log.FreeSegments() < nSeg/5
	if pressed {
		limit = payload - 1
		maxSegs *= 4
	}
	var cands []cand
	for seg := int64(0); seg < nSeg; seg++ {
		if seg == cur {
			continue
		}
		live, hist := d.usage.occupancy(seg)
		if hist > 0 || live <= 0 || live > limit || d.log.IsFree(seg) {
			// Pinned by retained history, empty, or too full to be worth
			// moving.
			continue
		}
		cands = append(cands, cand{seg, live})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].live < cands[j].live })
	if len(cands) > maxSegs {
		cands = cands[:maxSegs]
	}
	for _, c := range cands {
		if err := d.compactSegmentLocked(c.seg, pressed, cs); err != nil {
			return err
		}
	}
	return nil
}

// relocateJournalBlockLocked drains a journal block by relocating the
// complete retained chain of every object with a live sector inside it.
// Re-placing whole chains (oldest first, backward pointers re-linked)
// is the "cleaning objects rather than segments" cost the paper
// attributes to the S4 cleaner (§5.1.3). Returns false if some sector's
// owner cannot be relocated.
func (d *Drive) relocateJournalBlockLocked(blk seglog.BlockAddr, cs *CleanStats) (bool, error) {
	buf := make([]byte, seglog.BlockSize)
	if err := d.log.Read(blk, buf); err != nil {
		return false, err
	}
	owners := make(map[types.ObjectID]*object)
	for slot := 0; slot < journal.SectorsPerBlock; slot++ {
		data := buf[slot*journal.SectorSize : (slot+1)*journal.SectorSize]
		id, _, _, ok, err := journal.DecodeSector(data)
		if err != nil || !ok {
			continue
		}
		if o := d.objects[id]; o != nil {
			owners[id] = o
		}
	}
	for _, o := range owners {
		if err := d.relocateChainLocked(o, blk, cs); err != nil {
			return false, err
		}
	}
	d.logMu.Lock()
	drained := d.jblockRef[blk] == 0
	d.logMu.Unlock()
	return drained, nil
}

// relocateChainLocked re-places o's retained journal chain at the log
// head if any of its sectors lives in block avoid.
func (d *Drive) relocateChainLocked(o *object, avoid seglog.BlockAddr, cs *CleanStats) error {
	if o.jhead == journal.NilSector {
		return nil
	}
	type sec struct {
		addr    journal.SectorAddr
		entries []journal.Entry
	}
	var chain []sec
	hit := false
	err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		chain = append(chain, sec{addr, entries})
		hit = hit || addr.Block() == avoid
		return false, nil
	})
	if err != nil || !hit {
		return err
	}
	// Re-place oldest first, fixing the backward links. The new tail
	// links to nothing: whatever the old one pointed at was pruned, and a
	// crash before the barrier recovers this chain (once extended) under
	// the checkpointed jtail, which no longer names any of its sectors —
	// the walk must end here on its own.
	prev := journal.NilSector
	var newAddrs []journal.SectorAddr
	for i := len(chain) - 1; i >= 0; i-- {
		ptrs := make([]*journal.Entry, len(chain[i].entries))
		for j := range chain[i].entries {
			ptrs[j] = &chain[i].entries[j]
		}
		enc, err := journal.EncodeSector(o.id, prev, ptrs)
		if err != nil {
			return err
		}
		d.logMu.Lock()
		sa, err := d.placeSectorLocked(enc, vclock.TS(d.clk))
		d.logMu.Unlock()
		if err != nil {
			return err
		}
		newAddrs = append(newAddrs, sa)
		prev = sa
		cs.BlocksCopied++
	}
	for i := range chain {
		d.unrefJSector(chain[i].addr)
	}
	// Landmark index entries name chain positions; every sector just
	// moved, so re-register each flushed landmark at its new address.
	// The roots themselves are history blocks and did not move.
	for i := range chain {
		for j := range chain[i].entries {
			if ln := o.landmarkOf(&chain[i].entries[j]); ln != nil {
				ln.sector = newAddrs[len(chain)-1-i]
			}
		}
	}
	o.jhead = newAddrs[len(newAddrs)-1]
	o.jtail = newAddrs[0]
	o.jheadEntries = nil // decoded head image is stale; reread on demand
	return nil
}

// compactSegmentLocked moves every still-referenced block out of seg and
// frees it. Segments holding mid-chain journal sectors are skipped (they
// age out instead; rewriting chains here would cascade).
func (d *Drive) compactSegmentLocked(seg int64, pressed bool, cs *CleanStats) error {
	// A quarantined segment holds at least one block that failed its
	// checksum; compacting it would copy rot forward (or wedge the
	// cleaner on the same read error every pass). Leave it in place —
	// its healthy blocks stay readable and aging still reclaims them.
	if d.log.IsQuarantined(seg) {
		return nil
	}
	sum, ok, err := d.log.ReadSummary(seg)
	if err != nil || !ok {
		return err
	}
	// First scan: journal blocks with in-chain sectors pin the segment
	// unless space pressure justifies relocating their owners' chains
	// (relocated chains re-land at the log head, so doing this eagerly
	// would churn them forever).
	for i := range sum.Entries {
		addr := d.log.EntryAt(seg, i)
		d.logMu.Lock()
		inChain := d.jblockRef[addr] > 0
		d.logMu.Unlock()
		if sum.Entries[i].Kind == seglog.KindJournal && inChain {
			if !pressed {
				return nil
			}
			moved, err := d.relocateJournalBlockLocked(addr, cs)
			if err != nil {
				return err
			}
			if !moved {
				return nil // mid-chain sectors: wait for aging
			}
		}
	}
	// Live data blocks are gathered per object and relocated with one
	// vectored append each, so the survivors of a segment land
	// contiguously at the log head instead of paying the log mutex and
	// flush checks once per block.
	type reloc struct {
		o    *object
		vec  []seglog.VecEntry
		olds []seglog.BlockAddr
	}
	var relocs []*reloc
	byObj := make(map[types.ObjectID]*reloc)
	for i := range sum.Entries {
		se := &sum.Entries[i]
		addr := d.log.EntryAt(seg, i)
		switch se.Kind {
		case seglog.KindData:
			o := d.objects[se.Obj]
			if o == nil {
				continue
			}
			if err := d.loadInode(o); err != nil {
				return err
			}
			if o.ino.Block(se.Key) != addr {
				continue // dead or historical; aging handles it
			}
			data, err := d.readBlock(addr)
			if errors.Is(err, types.ErrCorrupt) {
				// The read verified and failed; the log has quarantined
				// the segment. Skip the block rather than relocate
				// garbage — it stays at its old address, still reported
				// as corrupt to any reader.
				continue
			}
			if err != nil {
				return err
			}
			r := byObj[se.Obj]
			if r == nil {
				r = &reloc{o: o}
				byObj[se.Obj] = r
				relocs = append(relocs, r)
			}
			r.vec = append(r.vec, seglog.VecEntry{Key: se.Key, Time: se.Time, Data: data[:se.Len]})
			r.olds = append(r.olds, addr)
		case seglog.KindInode:
			o := d.objects[se.Obj]
			if o == nil {
				continue
			}
			owned := false
			for _, a := range o.cpBlocks {
				if a == addr {
					owned = true
					break
				}
			}
			if !owned {
				continue // superseded checkpoint: already free
			}
			// Re-checkpoint the object at the log head; the old blocks
			// are freed by checkpointObjectLocked.
			if err := d.loadInode(o); err != nil {
				return err
			}
			o.cpVersion = 0 // force
			if err := d.checkpointObjectLocked(o); err != nil {
				return err
			}
			cs.BlocksCopied++
		case seglog.KindAudit:
			d.auditMu.Lock()
			idx := -1
			for j := range d.auditBlocks {
				if d.auditBlocks[j].addr == addr {
					idx = j
					break
				}
			}
			if idx < 0 {
				d.auditMu.Unlock()
				continue
			}
			data, err := d.readBlock(addr)
			if errors.Is(err, types.ErrCorrupt) {
				// Same containment as data blocks: never copy a failed
				// audit block forward, keep the original address so the
				// corruption stays visible to AuditRead.
				d.auditMu.Unlock()
				continue
			}
			if err != nil {
				d.auditMu.Unlock()
				return err
			}
			newAddr, err := d.log.Append(seglog.KindAudit, types.AuditObject, se.Key, se.Time, data[:se.Len])
			if err != nil {
				d.auditMu.Unlock()
				return err
			}
			d.auditBlocks[idx].addr = newAddr
			d.auditMu.Unlock()
			d.usage.liveBorn(segOf(d.log, newAddr))
			d.usage.freeLive(seg)
			d.cache.drop(addr)
			cs.BlocksCopied++
		case seglog.KindDelta:
			// Packed delta blocks are history from birth: while any
			// masked journal entry in the window references them, hist>0
			// pins the segment out of compaction entirely; once aged out
			// they are simply dead. Either way they are never relocated,
			// so a delta chain's addresses stay stable for its lifetime.
		}
	}
	for _, r := range relocs {
		newAddrs, err := d.log.AppendVec(seglog.KindData, r.o.id, r.vec...)
		if err != nil {
			return err
		}
		for j, newAddr := range newAddrs {
			r.o.ino.setBlock(r.vec[j].Key, newAddr)
			d.usage.liveBorn(segOf(d.log, newAddr))
			d.usage.freeLive(seg)
			d.cache.drop(r.olds[j])
			full := make([]byte, types.BlockSize)
			copy(full, r.vec[j].Data)
			d.cache.put(newAddr, full)
			cs.BlocksCopied++
		}
		// The journal's redo pointers now name the old location; only a
		// fresh checkpoint reconstructs this object, and the next
		// barrier must write one.
		r.o.pruned = true
		r.o.cpVersion = 0
		// Landmark roots and cached reconstructions snapshot block
		// addresses too — the relocated blocks may be live in historical
		// views — so every landmark up to the current version dies here,
		// durably: the landmark floor rides the object map of the barrier
		// checkpoint that must precede any reuse of the emptied segment,
		// so no recovery indexes one of them again.
		d.retireLandmarks(r.o)
		d.recon.dropObject(r.o.id)
	}
	// Relocated objects are refreshed by the checkpoint barrier that
	// precedes any reuse of the emptied segment (deferFree); nothing
	// more is needed here.
	live, hist := d.usage.occupancy(seg)
	if live == 0 && hist == 0 && seg != d.log.CurrentSegment() {
		d.deferFree(seg)
		cs.SegmentsFreed++
		cs.SegmentsCleaned++
	}
	return nil
}
