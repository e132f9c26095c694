package core

import (
	"errors"
	"slices"
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
	// RipeVisits counts the objects whose chain the ageing phase scanned
	// (their schedule said something could have aged); SectorsDecoded the
	// journal sectors it decoded to do so, index-building walks included.
	RipeVisits     int
	SectorsDecoded int
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
	// objects per pass, in ID order from where the last pass stopped — so
	// what a pass does is a function of the drive's state, and a
	// population larger than the batch is covered in turn. The per-object
	// nextAge schedule makes an unripe visit a comparison (no inode load,
	// no read), so the batch can be generous.
	const maxObjects = 4096
	// Room above the space reserve for the inode blocks of the pass's
	// prunes (ageObjectLocked).
	pruneRoom := int(d.log.FreeSegments()-d.spaceReserve) * d.log.PayloadBlocks()
	i, _ := slices.BinarySearch(d.objOrder, d.cleanCursor)
	for n := min(len(d.objOrder), maxObjects); n > 0; n-- {
		if i >= len(d.objOrder) {
			i = 0
		}
		reaped, err := d.ageObjectLocked(d.objects[d.objOrder[i]], ageCut, &pruneRoom, &cs)
		if err != nil {
			return cs, err
		}
		if reaped {
			cs.ObjectsReaped++ // and objOrder[i] is the next object now
		} else {
			i++
		}
	}
	d.cleanCursor = 0
	if i < len(d.objOrder) {
		d.cleanCursor = d.objOrder[i]
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
		_ = d.releaseSegmentLocked(seg)
		return
	}
	d.pendingFree[seg] = true
}

// releaseSegmentLocked returns an emptied segment to the allocator: the
// one place a whole address range changes meaning, since the log will
// append new blocks at its addresses. On a running drive every block in
// it died on its own and left the cache then, but recovery frees what
// its counts call empty, chain walks through the cache behind it (the
// pre-relocation chain of an object whose relocated chain the scan then
// relinked, say). Dropping the range here makes "no cached block of a
// free segment" a property of this function instead of every site that
// ever frees a block. Caller holds the exclusive drive lock.
func (d *Drive) releaseSegmentLocked(seg int64) error {
	lo := d.log.EntryAt(seg, 0)
	d.cache.dropRange(lo, lo+seglog.BlockAddr(d.log.PayloadBlocks()))
	return d.log.FreeSegment(seg)
}

// ageObjectLocked releases o's history older than ageCut. It returns
// true if the object itself was reaped (its deletion aged out). A prune
// spends *pruneRoom, the log blocks left for the barrier to write the
// inode blocks of the objects this pass pruned.
func (d *Drive) ageObjectLocked(o *object, ageCut types.Timestamp, pruneRoom *int, cs *CleanStats) (bool, error) {
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
	cs.RipeVisits++
	chain, err := d.chainIndexLocked(o, cs)
	if err != nil {
		return false, err
	}
	if ageCut <= o.floorTime {
		// The window grew back over the floor (SetWindow, SetPolicy): the
		// sectors passed whole hold entries this cut calls in-window again.
		o.chainAged = 0
	}
	// One scan, from the oldest sector not yet passed whole to the first
	// in-window entry: entries are appended in time order, so everything
	// past that entry is in the window too (under a clock that stepped
	// back, something past it waits for it: late, never early).
	// Releasing oldest first raises the floor monotonically.
	touched := false
	minRetained := types.Timestamp(1 << 62)
	passed := o.chainAged // leading sectors holding no in-window entry
	var scratch []byte
	aging := uint64(0) // the version whose entries this scan is releasing
scan:
	for ; passed < len(chain); passed++ {
		_, entries, err := d.readJSector(o.id, chain[passed], &scratch)
		if err != nil {
			return false, err
		}
		cs.SectorsDecoded++
		for j := range entries {
			e := &entries[j]
			if e.Time >= ageCut {
				minRetained = e.Time
				break scan
			}
			// Flush's merge entries share one version (and one time, so
			// one scan meets them all): those after the first are at the
			// floor it just raised, not below it.
			if e.Version <= o.floorVersion && e.Version != aging {
				continue
			}
			aging = e.Version
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
	// The head sector is never counted as passed: while it sits in the
	// open segment, flushes merge newer entries into it.
	passed = min(passed, len(chain)-1)
	// Landmark checkpoints age with the entries around them: they leave
	// the index, and reconstructions now below the floor leave the
	// inode-at-time cache. Any sector pruned below holds only sub-ageCut
	// entries, so its landmarks are already gone.
	o.dropLandmarksBelowFloor()
	d.recon.dropBelow(o.id, o.floorTime)
	// The passed sectors can be unlinked from the chain, but then the
	// journal alone no longer rebuilds the object, so pruning only pays
	// off for long chains — short fully-aged chains stay as cheap packed
	// sectors and move via relocation. The inode block a prune calls for
	// is the next barrier's to write, and that barrier comes before the
	// sectors' segments are reused. A barrier that cannot write every
	// such block frees no segment, so a pass prunes only what fits above
	// the space reserve (§11.5); an inode block holds ~256 map pairs.
	const pruneThreshold = 8 // sectors; ~one checkpoint block's worth
	need := 1 + len(o.ino.blocks)/256
	skipped := passed >= pruneThreshold && need > *pruneRoom
	if passed >= pruneThreshold && !skipped {
		*pruneRoom -= need
		for _, sa := range chain[:passed] {
			d.unrefJSector(sa)
		}
		cs.SectorsFreed += passed
		o.chain = chain[passed:]
		o.jtail = o.chain[0]
		o.pruned = true
		touched = true
		passed = 0
	}
	o.chainAged = passed
	if touched {
		cs.ObjectsAged++
	}
	// Schedule the next useful pass: nothing frees before the oldest
	// retained entry leaves the window. A fully-aged chain has nothing
	// left to free until a new entry arrives (appendEntry lowers the
	// schedule when one does). A prune skipped for room is due at the
	// next pass, whose budget the barriers since may have raised.
	switch {
	case skipped:
		o.nextAge = ageCut + types.Timestamp(win)
	case minRetained == 1<<62:
		o.nextAge = 1 << 62
	default:
		o.nextAge = minRetained + types.Timestamp(win)
	}
	return false, nil
}

// chainIndexLocked returns o's chain index, building it with one walk of
// the chain if the object was loaded without one. Caller holds the
// exclusive drive lock, o loaded.
func (d *Drive) chainIndexLocked(o *object, cs *CleanStats) ([]journal.SectorAddr, error) {
	if o.chain == nil {
		err := d.walkChain(o, o.jhead, func(addr, _ journal.SectorAddr, _ []journal.Entry) (bool, error) {
			o.chain = append(o.chain, addr)
			cs.SectorsDecoded++
			return false, nil
		})
		if err != nil {
			o.chain = nil
			return nil, err
		}
		slices.Reverse(o.chain)
	}
	return o.chain, nil
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
	if i, ok := slices.BinarySearch(d.objOrder, o.id); ok {
		d.objOrder = slices.Delete(d.objOrder, i, i+1)
	}
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
	var owners []*object // in slot order, so a pass repeats exactly
	for slot := 0; slot < journal.SectorsPerBlock; slot++ {
		data := buf[slot*journal.SectorSize : (slot+1)*journal.SectorSize]
		id, _, _, ok, err := journal.DecodeSector(data)
		if err != nil || !ok {
			continue
		}
		if o := d.objects[id]; o != nil && !slices.Contains(owners, o) {
			owners = append(owners, o)
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
	// moved, so re-register each flushed landmark at its new address;
	// its image moved with its entry.
	for i := range chain {
		for j := range chain[i].entries {
			if ln := o.landmarkOf(&chain[i].entries[j]); ln != nil {
				ln.sector = newAddrs[len(chain)-1-i]
			}
		}
	}
	o.jhead = newAddrs[len(newAddrs)-1]
	o.jtail = newAddrs[0]
	if o.chain != nil {
		// Sector for sector the same entries, so chainAged still holds.
		o.chain = newAddrs
	}
	return nil
}

// readLiveData reads the live data blocks of seg, whose summary is sum,
// a run of adjacent ones at a time (readBlocksVec). A block read alone
// ends at its Len (seglog.SummaryEntry.ReadSize), so the next one would
// start past where the device head stopped and pay a repositioning; in a
// run only the last block is cut short. A run that fails its checksum
// is left to the caller's reads of one block each, which skip the
// corrupt block alone: it returns no blocks then, and no error.
func (d *Drive) readLiveData(seg int64, sum seglog.Summary) (map[seglog.BlockAddr][]byte, error) {
	var live []seglog.BlockAddr
	for i := range sum.Entries {
		se := &sum.Entries[i]
		o := d.objects[se.Obj]
		if se.Kind != seglog.KindData || o == nil {
			continue
		}
		if err := d.loadInode(o); err != nil {
			return nil, err
		}
		if addr := d.log.EntryAt(seg, i); o.ino.Block(se.Key) == addr {
			live = append(live, addr)
		}
	}
	blocks, err := d.readBlocksVec(live)
	if errors.Is(err, types.ErrCorrupt) {
		return nil, nil
	}
	return blocks, err
}

// holdsChainSectors reports whether any journal block of seg still has
// a sector in some object's chain.
func (d *Drive) holdsChainSectors(seg int64) bool {
	lo := d.log.EntryAt(seg, 0)
	d.logMu.Lock()
	defer d.logMu.Unlock()
	for a := lo; a < lo+seglog.BlockAddr(d.log.PayloadBlocks()); a++ {
		if d.jblockRef[a] > 0 {
			return true
		}
	}
	return false
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
	// Journal blocks with in-chain sectors pin the segment unless space
	// pressure justifies relocating their owners' chains (relocated
	// chains re-land at the log head, so doing this eagerly would churn
	// them forever). jblockRef says so without the summary: a pass that
	// may not move the segment does not read it either.
	if !pressed && d.holdsChainSectors(seg) {
		return nil
	}
	sum, ok, err := d.log.ReadSummary(seg)
	if err != nil || !ok {
		return err
	}
	for i := 0; pressed && i < len(sum.Entries); i++ {
		addr := d.log.EntryAt(seg, i)
		d.logMu.Lock()
		inChain := d.jblockRef[addr] > 0
		d.logMu.Unlock()
		if sum.Entries[i].Kind == seglog.KindJournal && inChain {
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
	pre, err := d.readLiveData(seg, sum)
	if err != nil {
		return err
	}
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
			data := pre[addr]
			var err error
			if data == nil {
				data, err = d.readBlock(addr)
			}
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
			idx := auditRefIndex(d.auditBlocks, se.Key)
			if idx < 0 || d.auditBlocks[idx].addr != addr {
				d.auditMu.Unlock() // released: aged out, or moved already
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
		r.o.relocPending = true
		// Landmark images and cached reconstructions snapshot block
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
