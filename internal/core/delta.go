// Delta-compressed history pool (DESIGN.md §16).
//
// On overwrite, the write path re-encodes the *old* block as a reverse
// delta against the *new* content: live reads keep full blocks, only
// back-in-time walks pay the decode. Encoded slots are packed several
// to a KindDelta log block (internal/delta), and the journal entry's
// Old slot stores a packed-slot reference instead of a block address,
// flagged by the entry's DeltaMask.
//
// References resolve by context, not by address: the reverse delta for
// block i created by entry e decodes against block i's content in the
// era just above e. The newest-first undo walk records exactly that
// mapping (Inode.deltaRef) as it steps past each masked entry, so a
// chain stays decodable no matter how the addresses above it churn —
// chains link by content equality.
//
// Retention policies (types.Policy) ride the same entry rewrite: an
// outgoing version the policy does not retain has its old blocks freed
// outright (SkipMask); the walk poisons those indexes and the affected
// versions read as typed ErrNoVersion, never as manufactured bytes.
package core

import (
	"fmt"
	"sync"
	"time"

	"s4/internal/delta"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// The journal's slot-reference packing factor and the packed codec's
// must agree; a mismatch would silently mis-address every slot.
var _ [delta.SlotsPerRef - journal.DeltaSlotsPerBlock]struct{}
var _ [journal.DeltaSlotsPerBlock - delta.SlotsPerRef]struct{}

// deltaRefTag marks a packed-slot reference installed into a walk
// clone's block map. On disk the reference is stored untagged (the
// DeltaMask bit disambiguates); in memory the tag makes any misuse as
// a plain block address fail loudly in the segment log's range check
// instead of silently reading the wrong block.
const deltaRefTag = uint64(1) << 63

// maxDeltaEntryBlocks is the per-entry pointer budget when the policy
// may add masks and a dropped-address list to the wire entry; smaller
// than journal.MaxBlocksPerEntry so the worst-case entWrite2 encoding
// still fits one 486-byte journal sector.
const maxDeltaEntryBlocks = 20

// maxDeltaSlotBytes bounds one encoded slot. Half a block: anything
// larger saves too little over a keyframe to be worth a chain link.
const maxDeltaSlotBytes = types.BlockSize / 2

// maxDeltaDepth caps reference-chain resolution. Chains are bounded by
// the writer's maxDeltaChain (default 8); the fixed cap stays safe if
// an image written with a longer bound is reopened with a shorter one,
// while still turning a corrupt self-referencing map into ErrCorrupt.
const maxDeltaDepth = 64

// isDeltaRef reports whether a block-map value is a tagged packed-slot
// reference rather than a plain address.
func isDeltaRef(a seglog.BlockAddr) bool { return uint64(a)&deltaRefTag != 0 }

// effectivePolicy returns the retention policy governing id: the
// object's own, else the drive default (key 0). Reserved drive-owned
// objects are always every-version with delta off — the audit trail
// and the tables recovery depends on must never thin. Caller holds the
// drive lock in either mode.
func (d *Drive) effectivePolicy(id types.ObjectID) types.Policy {
	if id < types.FirstUserObject {
		return types.Policy{}
	}
	if p, ok := d.policies[id]; ok {
		return p
	}
	return d.policies[0]
}

// convertOldLocked applies the retention policy and reverse-delta
// conversion to the old blocks one EntWrite is about to push into the
// history pool, rewriting e.Old/DeltaMask/SkipMask/Dropped in place.
// fulls[i] is the full zero-padded content of e.New[i] (the encoding
// context). It returns the history bytes this entry actually grew the
// pool by. Caller holds o.mu exclusively (plus the shared drive lock)
// or the exclusive drive lock.
func (d *Drive) convertOldLocked(o *object, e *journal.Entry, fulls [][]byte, pol types.Policy) int64 {
	deltaOn := pol.DeltaEnabled && d.opts.maxDeltaChain > 0
	skipOn := pol.Mode != types.ModeEveryVersion
	if !deltaOn && !skipOn {
		var hist int64
		for _, old := range e.Old {
			if old != seglog.NilAddr {
				hist += types.BlockSize
			}
		}
		return hist
	}

	var lastLm uint64
	if len(o.landmarks) > 0 {
		lastLm = o.landmarks[len(o.landmarks)-1].version
	}
	keyframe := func(i int) {
		delete(o.deltaRun, e.FirstBlock+uint64(i))
	}

	type cand struct {
		idx  int // position within e.Old
		addr seglog.BlockAddr
		t    types.Timestamp
	}
	var (
		hist     int64
		eligible []cand
		chainHit int64
		skipped  bool
		minDropT types.Timestamp
	)
	for i, old := range e.Old {
		if old == seglog.NilAddr {
			continue
		}
		bi, known := o.birth[old]
		// The landmark bound matters independently of retainedVer after a
		// restart: retainedVer is volatile (reset to zero) while recovered
		// landmarks keep their pre-crash versions, and a landmark image
		// must never reference a freed block.
		if skipOn && known && bi.ver > o.retainedVer && bi.ver > lastLm {
			// The outgoing version is not retained: keep the journal
			// record (the audit trail is sacred), free the data. The
			// undo walk sees the skip bit and poisons the index, so the
			// dropped versions read as ErrNoVersion, never as zeros.
			e.Old[i] = seglog.NilAddr
			e.SkipMask |= 1 << uint(i)
			e.Dropped = append(e.Dropped, old)
			d.usage.freeLive(segOf(d.log, old))
			d.cache.drop(old)
			delete(o.birth, old)
			keyframe(i)
			if minDropT == 0 || bi.t < minDropT {
				minDropT = bi.t
			}
			skipped = true
			continue
		}
		if !deltaOn || !known ||
			// A landmark at or above the old block's birth holds its
			// address in a checkpoint image; freeing it would break
			// landmark-anchored reconstruction. Keyframe instead.
			lastLm >= bi.ver {
			keyframe(i)
			hist += types.BlockSize
			continue
		}
		if o.deltaRun[e.FirstBlock+uint64(i)] >= d.opts.maxDeltaChain {
			// Chain bound: force a full-block keyframe so a deep read
			// decodes at most maxDeltaChain slots per block.
			keyframe(i)
			chainHit++
			hist += types.BlockSize
			continue
		}
		eligible = append(eligible, cand{idx: i, addr: old, t: bi.t})
	}

	// Encode and pack the eligible blocks. Conversion only pays if it
	// saves at least one physical block, and a packed block is never
	// shared between entries, so a lone eligible block is not even read:
	// it, like every eligible block of an entry whose conversion saves
	// nothing or fails, stays a plain full-block history pointer.
	var (
		cands []cand
		slots []delta.Slot
	)
	if len(eligible) > 1 {
		for _, c := range eligible {
			prev, err := d.readBlock(c.addr)
			if err != nil {
				// Unreadable old block: keep it as a plain (possibly
				// quarantined) history pointer; the scrubber reports it.
				continue
			}
			s, ok := delta.EncodeSlot(fulls[c.idx], prev, maxDeltaSlotBytes)
			if !ok {
				continue
			}
			s.Orig = uint64(c.addr)
			cands = append(cands, c)
			slots = append(slots, s)
		}
	}
	if len(cands) > 1 {
		// PackSlots compresses the slots only if that can save a block.
		images, at := delta.PackSlots(slots, seglog.BlockSize)
		if len(images) < len(cands) {
			vec := make([]seglog.VecEntry, len(images))
			for bi, img := range images {
				vec[bi] = seglog.VecEntry{Key: e.Version, Time: e.Time, Data: img}
			}
			addrs, err := d.log.AppendVec(seglog.KindDelta, o.id, vec...)
			if err == nil {
				for bi, a := range addrs {
					// History-born: the packed block belongs to the pool
					// from birth and pins its segment until the entry
					// around it ages out.
					seg := segOf(d.log, a)
					d.usage.liveBorn(seg)
					d.usage.deprecate(seg)
					full := make([]byte, seglog.BlockSize)
					copy(full, images[bi])
					d.cache.put(a, full)
				}
				var minT types.Timestamp
				for ci, c := range cands {
					ref := uint64(addrs[at[ci].Block])*journal.DeltaSlotsPerBlock + uint64(at[ci].Slot)
					e.Old[c.idx] = seglog.BlockAddr(ref)
					e.DeltaMask |= 1 << uint(c.idx)
					d.usage.freeLive(segOf(d.log, c.addr))
					d.cache.drop(c.addr)
					delete(o.birth, c.addr)
					if o.deltaRun == nil {
						o.deltaRun = make(map[uint64]int)
					}
					o.deltaRun[e.FirstBlock+uint64(c.idx)]++
					if minT == 0 || c.t < minT {
						minT = c.t
					}
				}
				// Cached reconstructions from the freed blocks' era hold
				// the freed addresses; invalidate them before the
				// segments they point into can move.
				d.recon.dropSince(o.id, minT)
				hist += int64(len(addrs)) * types.BlockSize
				d.statsMu.Lock()
				d.stats.DeltaBlocksWritten += int64(len(addrs))
				d.stats.DeltaBytesSaved += int64(len(cands)-len(addrs)) * types.BlockSize
				d.statsMu.Unlock()
			}
		}
	}
	for _, c := range eligible {
		if e.DeltaMask&(1<<uint(c.idx)) == 0 {
			keyframe(c.idx)
			hist += types.BlockSize
		}
	}
	if skipped {
		d.recon.dropSince(o.id, minDropT)
		d.statsMu.Lock()
		d.stats.PolicySkippedVersions++
		d.statsMu.Unlock()
	}
	if chainHit > 0 {
		d.statsMu.Lock()
		d.stats.ChainKeyframes += chainHit
		d.statsMu.Unlock()
	}
	return hist
}

// effectiveWindow returns the detection window governing id: the
// policy's override when set, else the drive-wide window. The cleaner
// ages against this (recovery ages nothing), so a per-object window
// shortens (or stretches) that object's history pool without touching
// anything else.
func (d *Drive) effectiveWindow(id types.ObjectID) time.Duration {
	if p := d.effectivePolicy(id); p.Window > 0 {
		return p.Window
	}
	return d.window
}

// splitDeltaRef splits a packed-slot reference (tag already cleared)
// into the packed delta block it points into and the slot within it.
func splitDeltaRef(raw uint64) (packed seglog.BlockAddr, slot int) {
	return seglog.BlockAddr(raw / journal.DeltaSlotsPerBlock), int(raw % journal.DeltaSlotsPerBlock)
}

// poolBlocks calls fn for every history-pool block e's Old list pins: a
// plain pointer names the deprecated block itself; a DeltaMask'd slot
// names its shared packed delta block, yielded once per entry however
// many slots point in. Together with the final blocks of unreaped
// deleted objects, the blocks this yields for the
// retained entries above an object's floor are the history pool —
// the cleaner, recovery's usage rebuild and CheckInvariants all enumerate
// it here.
func poolBlocks(e *journal.Entry, fn func(addr seglog.BlockAddr, packed bool)) {
	var donePacked map[seglog.BlockAddr]bool
	for k, old := range e.Old {
		if old == seglog.NilAddr {
			continue
		}
		if e.DeltaMask&(1<<uint(k)) == 0 {
			fn(old, false)
			continue
		}
		packed, _ := splitDeltaRef(uint64(old))
		if donePacked[packed] {
			continue
		}
		if donePacked == nil {
			donePacked = make(map[seglog.BlockAddr]bool)
		}
		donePacked[packed] = true
		fn(packed, true)
	}
}

// ageOutOldLocked releases the history blocks one aged (or reaped)
// entry deprecated.
func (d *Drive) ageOutOldLocked(e *journal.Entry, cs *CleanStats) {
	poolBlocks(e, func(addr seglog.BlockAddr, _ bool) {
		d.usage.ageOut(segOf(d.log, addr))
		d.cache.drop(addr)
		cs.BlocksAgedOut++
	})
}

// packedOrigs reads the packed delta block at addr and returns the
// original (pre-conversion) address of each slot, or nil when the block
// is unreadable or not a packed block — callers treat that as "nothing
// to account", never as an error, because the accounting paths that
// need it have already vetted the block's durability.
func (d *Drive) packedOrigs(addr seglog.BlockAddr) []uint64 {
	blk, err := d.readBlock(addr)
	if err != nil {
		return nil
	}
	origs, err := delta.OrigAddrs(blk)
	if err != nil {
		return nil
	}
	return origs
}

// droppedByBit decodes e's Dropped list (ascending-bit wire order) into
// a slot-index → freed-address map, for rewrites that add or clear skip
// bits. rebuildDropped re-derives the wire list from the same map.
func droppedByBit(e *journal.Entry) map[int]seglog.BlockAddr {
	m := make(map[int]seglog.BlockAddr)
	j := 0
	for k := 0; k < len(e.Old); k++ {
		if e.SkipMask&(1<<uint(k)) != 0 {
			if j < len(e.Dropped) {
				m[k] = e.Dropped[j]
			}
			j++
		}
	}
	return m
}

func rebuildDropped(e *journal.Entry, addrOf map[int]seglog.BlockAddr) {
	e.Dropped = nil
	for k := 0; k < len(e.Old); k++ {
		if e.SkipMask&(1<<uint(k)) != 0 {
			e.Dropped = append(e.Dropped, addrOf[k])
		}
	}
}

// chainBufs holds the pairs of block buffers a chain of two or more
// links decodes its intermediate contents in.
var chainBufs = sync.Pool{New: func() any { return new([2][seglog.BlockSize]byte) }}

// materializeRef resolves a (possibly tagged) block-map value to block
// content. A plain address reads the log. A tagged reference is the top
// of a chain: its successor contexts are resolved through in.deltaRef
// down to the plain keyframe, then each packed slot is decoded against
// the content below it, newest first. Intermediate contents alternate
// between two pooled buffers (the keyframe is the cache's and is only
// read); the last link decodes into a buffer of its own, because the
// caller keeps what it gets — in a reply under assembly, or in the block
// cache. Every failure is typed: a broken chain or rotted slot never
// materializes garbage.
func (d *Drive) materializeRef(in *Inode, ref uint64) ([]byte, error) {
	var arr [maxDeltaDepth]uint64
	links := arr[:0]
	for ref&deltaRefTag != 0 {
		if len(links) == maxDeltaDepth {
			return nil, fmt.Errorf("core: %v delta chain exceeds depth %d: %w",
				in.ID, maxDeltaDepth, types.ErrCorrupt)
		}
		ctx, ok := in.deltaRef[ref]
		if !ok {
			return nil, fmt.Errorf("core: %v unresolved delta reference %#x: %w",
				in.ID, ref, types.ErrCorrupt)
		}
		links = append(links, ref)
		ref = ctx
	}
	content, err := d.readBlock(seglog.BlockAddr(ref))
	if err != nil {
		return nil, err
	}
	var bufs *[2][seglog.BlockSize]byte
	if len(links) > 1 {
		bufs = chainBufs.Get().(*[2][seglog.BlockSize]byte)
		defer chainBufs.Put(bufs)
	}
	for i := len(links) - 1; i >= 0; i-- {
		var dst []byte
		if i > 0 {
			dst = bufs[i&1][:]
		}
		packed, slot := splitDeltaRef(links[i] &^ deltaRefTag)
		blk, err := d.readBlock(packed)
		if err != nil {
			return nil, err
		}
		content, err = delta.ApplySlot(dst, blk, slot, content)
		if err != nil {
			return nil, fmt.Errorf("core: %v delta slot %d@%v: %w", in.ID, slot, packed, err)
		}
		if len(content) != seglog.BlockSize {
			return nil, fmt.Errorf("core: %v delta slot %d@%v decoded %d bytes: %w",
				in.ID, slot, packed, len(content), types.ErrCorrupt)
		}
	}
	return content, nil
}
