package core

import (
	"encoding/binary"
	"math"
	"slices"

	"s4/internal/codec"
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
// a landmark is used only where its sector still holds its entry.
//
// It also carries the inode of every object loaded at the checkpoint,
// in a landmark's image encoding: the state the chain walk (or the root
// read) behind loadInode would rebuild for that object at the start of
// recovery. An Open loads each object the tail
// touches from its image and redoes the tail on top, reading nothing.

const (
	segIndexMagic = 0x53344958 // "S4IX"
	// Version 2 dropped the per-object aging hint (recovery does not
	// age) and added the open segment's fill; version 3 dropped the
	// per-object flags (the landmark floor in the object map replaced
	// the only one); version 4 appended the inode images; version 5
	// dropped each landmark's root block address (the image rides the
	// entry). An older index fails the version check and the open
	// degrades to the full scan.
	segIndexVersion = 5
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
	// images holds the checkpoint-time inode of every object loaded at
	// the checkpoint whose root needs no overflow block, undecoded: an
	// open decodes only those it loads (takeRecImage).
	images map[types.ObjectID][]byte
}

// encodeSegIndexLocked serializes the drive's usage tables and landmark
// indexes, and with images the inode of every loaded object. Caller
// holds the exclusive drive lock; the snapshot must be taken after the
// final log.Sync of a checkpoint so the counters match the durable log
// contents, and every loaded inode its flushed chain.
func (d *Drive) encodeSegIndexLocked(images bool) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, segIndexMagic)
	buf = binary.LittleEndian.AppendUint32(buf, segIndexVersion)
	nSeg := d.log.NumSegments()
	buf = binary.AppendUvarint(buf, uint64(nSeg))
	buf = binary.AppendUvarint(buf, uint64(d.log.CurrentSegment()+1)) // openSeg, shifted so -1 encodes as 0
	buf = binary.AppendUvarint(buf, uint64(d.log.PayloadBlocks()-d.log.Room()))
	for seg := int64(0); seg < nSeg; seg++ {
		// pendingFree segments are freed the instant this checkpoint
		// commits; persisting them free makes the cleaner's reclamation
		// durable atomically with the object map that stopped
		// referencing them.
		free := uint64(0)
		if d.log.IsFree(seg) || d.pendingFree[seg] {
			free = 1
		}
		live, hist := d.usage.occupancy(seg)
		buf = binary.AppendUvarint(buf, free)
		buf = binary.AppendUvarint(buf, uint64(uint32(live)))
		buf = binary.AppendUvarint(buf, uint64(uint32(hist)))
	}

	refs := make([]seglog.BlockAddr, 0, len(d.jblockRef))
	for a := range d.jblockRef {
		refs = append(refs, a)
	}
	slices.Sort(refs)
	buf = binary.AppendUvarint(buf, uint64(len(refs)))
	for _, a := range refs {
		buf = binary.AppendUvarint(buf, uint64(a))
		buf = binary.AppendUvarint(buf, uint64(uint32(d.jblockRef[a])))
	}

	buf = binary.AppendUvarint(buf, uint64(len(d.objOrder)))
	for _, id := range d.objOrder {
		o := d.objects[id]
		buf = binary.AppendUvarint(buf, uint64(o.id))
		buf = binary.AppendUvarint(buf, uint64(len(o.landmarks)))
		for _, ln := range o.landmarks {
			buf = binary.AppendUvarint(buf, uint64(ln.time))
			buf = binary.AppendUvarint(buf, ln.version)
			buf = binary.AppendUvarint(buf, uint64(ln.sector))
		}
	}

	// The images last, so an index without them is the same bytes up to
	// a zero count.
	var imgs []byte
	n := 0
	for _, id := range d.objOrder {
		o := d.objects[id]
		if !images || o.ino == nil {
			continue
		}
		img := o.ino.image()
		if img == nil {
			continue // a root that needs overflow blocks stays on the log
		}
		imgs = binary.AppendUvarint(imgs, uint64(id))
		imgs = binary.AppendUvarint(imgs, uint64(len(img)))
		imgs = append(imgs, img...)
		n++
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(buf, imgs...)
}

// decodeSegIndex parses an index blob. nSeg is the log's segment count;
// an index recorded against a different geometry is rejected. Every
// failure is a typed error wrapping types.ErrCorrupt (callers fall back
// to full-scan recovery); hostile bytes must never panic and never
// decode to a structurally inconsistent index.
func decodeSegIndex(data []byte, nSeg int64) (*segIndex, error) {
	r := codec.NewReader("core: segment index", data)
	if r.U32() != segIndexMagic {
		return nil, r.Fail("bad magic")
	}
	if v := r.U32(); v != segIndexVersion {
		return nil, r.Fail("version %d, this build reads %d", v, segIndexVersion)
	}
	if n := r.Uvarint(); n != uint64(nSeg) {
		return nil, r.Fail("covers %d segments, log has %d", n, nSeg)
	}
	os1, used := r.Uvarint(), r.Uvarint()
	if os1 > uint64(nSeg) || used > math.MaxInt32 || (os1 == 0 && used != 0) {
		return nil, r.Fail("open segment %d of %d filled to %d", int64(os1)-1, nSeg, used)
	}
	idx := &segIndex{
		openSeg:  int64(os1) - 1,
		openUsed: int(used),
		segs:     make([]segIndexSeg, nSeg),
		jrefs:    make(map[seglog.BlockAddr]int),
		objects:  make(map[types.ObjectID][]landmark),
		images:   make(map[types.ObjectID][]byte),
	}
	for seg := range idx.segs {
		f, lv, hv := r.Uvarint(), r.Uvarint(), r.Uvarint()
		// Counters past int32 would wrap negative; real ones are bounded
		// by blocks-per-segment anyway.
		if f > 1 || lv > math.MaxInt32 || hv > math.MaxInt32 || f == 1 && lv|hv != 0 {
			return nil, r.Fail("segment %d: free bit %d, counters %d/%d", seg, f, lv, hv)
		}
		idx.segs[seg] = segIndexSeg{free: f == 1, live: int32(lv), hist: int32(hv)}
	}
	if idx.openSeg >= 0 && idx.segs[idx.openSeg].free {
		return nil, r.Fail("frees its open segment %d", idx.openSeg)
	}

	prevAddr := uint64(0)
	for i := r.Count(r.Uvarint(), 2, 0); i > 0; i-- {
		a, c := r.Uvarint(), r.Uvarint()
		if len(idx.jrefs) > 0 && a <= prevAddr || c == 0 || c > journal.SectorsPerBlock {
			return nil, r.Fail("refcount %d at %d out of order or range", c, a)
		}
		prevAddr = a
		idx.jrefs[seglog.BlockAddr(a)] = int(c)
	}

	prevID := uint64(0)
	for i := r.Count(r.Uvarint(), 2, 0); i > 0; i-- {
		id := r.Uvarint()
		if len(idx.objects) > 0 && id <= prevID {
			return nil, r.Fail("objects out of order at %d", id)
		}
		prevID = id
		var lms []landmark
		for j := r.Count(r.Uvarint(), 3, 0); j > 0; j-- {
			ln := landmark{
				time:    types.Timestamp(r.Uvarint()),
				version: r.Uvarint(),
				sector:  journal.SectorAddr(r.Uvarint()),
			}
			if ln.sector == journal.NilSector {
				return nil, r.Fail("landmark without sector")
			}
			if prev := len(lms) - 1; prev >= 0 && (ln.time < lms[prev].time || ln.time == lms[prev].time && ln.version <= lms[prev].version) {
				return nil, r.Fail("landmarks out of order")
			}
			lms = append(lms, ln)
		}
		idx.objects[types.ObjectID(id)] = lms
	}

	// An image is an object id, a length and at least one byte.
	prevID = 0
	for i := r.Count(r.Uvarint(), 3, 0); i > 0; i-- {
		id := types.ObjectID(r.Uvarint())
		img := r.Bytes(r.Count(r.Uvarint(), 1, seglog.BlockSize))
		if _, ok := idx.objects[id]; !ok || len(img) == 0 || len(idx.images) > 0 && uint64(id) <= prevID {
			return nil, r.Fail("image of %v out of order, empty or of no object", id)
		}
		prevID = uint64(id)
		idx.images[id] = img
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return idx, nil
}

// takeRecImage returns the checkpoint-time inode the segment index
// carried for o, and nil if it carried none or the image does not decode
// to o. The image leaves the map either way: a load consumes it once.
// Only recovery holds images, so a load outside it finds none.
func (d *Drive) takeRecImage(o *object) *Inode {
	img, ok := d.recImages[o.id]
	if !ok {
		return nil
	}
	delete(d.recImages, o.id)
	in, _, err := decodeInodeRoot(nil, img)
	if err != nil || in.ID != o.id {
		return nil
	}
	return in
}
