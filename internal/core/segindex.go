package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// Persistent segment index (DESIGN.md §14).
//
// Recovering from the empty base re-walks every journal chain on each
// Open — robust, but open time grows with history depth. The segment
// index is the checkpoint-time snapshot of exactly the state that walk
// rebuilds: per-segment live/history counters and free bits, the
// shared-journal-block refcounts, and each object's landmark index. It
// rides in the same checkpoint slot write as the object map (one atomic
// blob, seglog.WriteCheckpoint's second part), so it can never be newer
// or older than the object map it describes. An Open that takes it for
// its base accounts only the objects the journal tail past the
// checkpoint touched (accountObject); any decode failure, version skew,
// or torn slot degrades to the empty base — never to divergent state.
//
// The index is advisory by construction: nothing on the recovery path
// trusts it over the log. Segment free bits fold in pendingFree (the
// deferred-reuse barrier frees those segments the moment the checkpoint
// commits, so encoding them free is what makes cleaner frees durable);
// landmark roots are re-validated against the log before use.

const (
	segIndexMagic = 0x53344958 // "S4IX"
	// Version 2 dropped the per-object aging hint (recovery does not
	// age) and added the open segment's fill; version 3 dropped the
	// per-object flags (the landmark floor in the object map replaced
	// the only one). An older index fails the version check and the open
	// degrades to the full scan.
	segIndexVersion = 3
)

// segIndexSeg is one segment's persisted occupancy.
type segIndexSeg struct {
	free bool
	live int32
	hist int32
}

// segIndex is the decoded form consumed by indexed recovery.
type segIndex struct {
	// openSeg is the segment that was open for appends when the
	// checkpoint was taken (-1 if none). Journal head sectors inside it
	// can be rewritten in place after the checkpoint (the head-merge
	// flush path) without any durable summary update, so indexed
	// recovery must re-read heads that live there even when the
	// roll-forward scan saw nothing.
	openSeg int64
	// openUsed is how many payload slots of openSeg were taken at the
	// checkpoint: a block at or past it was appended afterwards.
	openUsed int
	segs     []segIndexSeg
	jrefs    map[seglog.BlockAddr]int
	// objects holds every object's landmark index; an object without
	// landmarks is present with a nil list.
	objects map[types.ObjectID][]landmark
}

// encodeSegIndexLocked serializes the drive's usage tables and landmark
// indexes. Caller holds the exclusive drive lock; the snapshot must be
// taken after the final log.Sync of a checkpoint so the counters match
// the durable log contents.
func (d *Drive) encodeSegIndexLocked() []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], segIndexMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segIndexVersion)
	buf = append(buf, hdr[:]...)

	nSeg := d.log.NumSegments()
	putU(uint64(nSeg))
	putU(uint64(d.log.CurrentSegment() + 1)) // openSeg, shifted so -1 encodes as 0
	putU(uint64(d.log.PayloadBlocks() - d.log.Room()))
	for seg := int64(0); seg < nSeg; seg++ {
		// pendingFree segments are freed the instant this checkpoint
		// commits; persisting them free makes the cleaner's reclamation
		// durable atomically with the object map that stopped
		// referencing them.
		free := d.log.IsFree(seg) || d.pendingFree[seg]
		if free {
			putU(1)
		} else {
			putU(0)
		}
		live, hist := d.usage.occupancy(seg)
		putU(uint64(uint32(live)))
		putU(uint64(uint32(hist)))
	}

	refs := make([]seglog.BlockAddr, 0, len(d.jblockRef))
	for a := range d.jblockRef {
		refs = append(refs, a)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	putU(uint64(len(refs)))
	for _, a := range refs {
		putU(uint64(a))
		putU(uint64(uint32(d.jblockRef[a])))
	}

	putU(uint64(len(d.objOrder)))
	for _, id := range d.objOrder {
		o := d.objects[id]
		putU(uint64(o.id))
		putU(uint64(len(o.landmarks)))
		for _, ln := range o.landmarks {
			putU(uint64(ln.time))
			putU(ln.version)
			putU(uint64(ln.root))
			putU(uint64(ln.sector))
		}
	}
	return buf
}

// decodeSegIndex parses an index blob. nSeg is the log's segment count;
// an index recorded against a different geometry is rejected. Every
// failure is a typed error wrapping types.ErrCorrupt (callers fall back
// to full-scan recovery); hostile bytes must never panic and never
// decode to a structurally inconsistent index.
func decodeSegIndex(data []byte, nSeg int64) (*segIndex, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("core: segment index too short: %w", types.ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[:4]) != segIndexMagic {
		return nil, fmt.Errorf("core: bad segment index magic: %w", types.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segIndexVersion {
		return nil, fmt.Errorf("core: segment index version %d, this build reads %d: %w", v, segIndexVersion, types.ErrCorrupt)
	}
	data = data[8:]
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("core: segment index varint: %w", types.ErrCorrupt)
		}
		data = data[n:]
		return v, nil
	}

	n, err := getU()
	if err != nil {
		return nil, err
	}
	if int64(n) != nSeg {
		return nil, fmt.Errorf("core: segment index covers %d segments, log has %d: %w", n, nSeg, types.ErrCorrupt)
	}
	os1, err := getU()
	if err != nil {
		return nil, err
	}
	if os1 > uint64(nSeg) {
		return nil, fmt.Errorf("core: segment index open segment %d of %d: %w", int64(os1)-1, nSeg, types.ErrCorrupt)
	}
	used, err := getU()
	if err != nil {
		return nil, err
	}
	if used > math.MaxInt32 || (os1 == 0 && used != 0) {
		return nil, fmt.Errorf("core: segment index open segment fill %d: %w", used, types.ErrCorrupt)
	}
	idx := &segIndex{
		openSeg:  int64(os1) - 1,
		openUsed: int(used),
		segs:     make([]segIndexSeg, nSeg),
		jrefs:    make(map[seglog.BlockAddr]int),
		objects:  make(map[types.ObjectID][]landmark),
	}
	for seg := int64(0); seg < nSeg; seg++ {
		f, err := getU()
		if err != nil {
			return nil, err
		}
		if f > 1 {
			return nil, fmt.Errorf("core: segment index free bit %d: %w", f, types.ErrCorrupt)
		}
		lv, err := getU()
		if err != nil {
			return nil, err
		}
		hv, err := getU()
		if err != nil {
			return nil, err
		}
		if lv > math.MaxInt32 || hv > math.MaxInt32 {
			// Anything past int32 would wrap negative below; real
			// counters are bounded by blocks-per-segment anyway.
			return nil, fmt.Errorf("core: segment index counter overflow: %w", types.ErrCorrupt)
		}
		idx.segs[seg] = segIndexSeg{free: f == 1, live: int32(lv), hist: int32(hv)}
		if idx.segs[seg].free && (idx.segs[seg].live != 0 || idx.segs[seg].hist != 0) {
			return nil, fmt.Errorf("core: segment index frees occupied segment %d: %w", seg, types.ErrCorrupt)
		}
	}
	if idx.openSeg >= 0 && idx.segs[idx.openSeg].free {
		return nil, fmt.Errorf("core: segment index frees its open segment %d: %w", idx.openSeg, types.ErrCorrupt)
	}

	nRef, err := getU()
	if err != nil {
		return nil, err
	}
	if nRef > uint64(len(data)) {
		// Each pair costs at least two bytes; an impossible count is an
		// attack on the allocation below, not a real index.
		return nil, fmt.Errorf("core: segment index refcount count %d: %w", nRef, types.ErrCorrupt)
	}
	var prevAddr uint64
	for i := uint64(0); i < nRef; i++ {
		a, err := getU()
		if err != nil {
			return nil, err
		}
		if i > 0 && a <= prevAddr {
			return nil, fmt.Errorf("core: segment index refcounts out of order: %w", types.ErrCorrupt)
		}
		prevAddr = a
		c, err := getU()
		if err != nil {
			return nil, err
		}
		if c == 0 || c > journal.SectorsPerBlock {
			return nil, fmt.Errorf("core: segment index refcount %d: %w", c, types.ErrCorrupt)
		}
		idx.jrefs[seglog.BlockAddr(a)] = int(c)
	}

	nObj, err := getU()
	if err != nil {
		return nil, err
	}
	if nObj > uint64(len(data)) {
		return nil, fmt.Errorf("core: segment index object count %d: %w", nObj, types.ErrCorrupt)
	}
	var prevID uint64
	first := true
	for i := uint64(0); i < nObj; i++ {
		id, err := getU()
		if err != nil {
			return nil, err
		}
		if !first && id <= prevID {
			return nil, fmt.Errorf("core: segment index objects out of order: %w", types.ErrCorrupt)
		}
		first, prevID = false, id
		nLM, err := getU()
		if err != nil {
			return nil, err
		}
		if nLM > uint64(len(data)) {
			return nil, fmt.Errorf("core: segment index landmark count %d: %w", nLM, types.ErrCorrupt)
		}
		var lms []landmark
		var prev landmark
		for j := uint64(0); j < nLM; j++ {
			t, err := getU()
			if err != nil {
				return nil, err
			}
			v, err := getU()
			if err != nil {
				return nil, err
			}
			r, err := getU()
			if err != nil {
				return nil, err
			}
			s, err := getU()
			if err != nil {
				return nil, err
			}
			ln := landmark{
				time:    types.Timestamp(t),
				version: v,
				root:    seglog.BlockAddr(r),
				sector:  journal.SectorAddr(s),
			}
			if ln.root == seglog.NilAddr {
				return nil, fmt.Errorf("core: segment index landmark without root: %w", types.ErrCorrupt)
			}
			if j > 0 && (ln.time < prev.time || ln.time == prev.time && ln.version <= prev.version) {
				return nil, fmt.Errorf("core: segment index landmarks out of order: %w", types.ErrCorrupt)
			}
			prev = ln
			lms = append(lms, ln)
		}
		idx.objects[types.ObjectID(id)] = lms
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after segment index: %w", len(data), types.ErrCorrupt)
	}
	return idx, nil
}
