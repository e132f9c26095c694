package core

import (
	"fmt"
	"sort"
	"strings"
)

// StateDigest renders the drive's recovered structural state as a
// deterministic, human-diffable text dump: object map (chain anchors,
// checkpoint addresses, version counters, landmark indexes), per-segment
// occupancy and free bits, shared-journal-block refcounts, audit-block
// list, and allocator counters.
//
// Its purpose is the recovery-equivalence battery: the same crash image
// opened via the segment index and via full-scan replay must produce
// byte-identical digests. Deliberately excluded: object.nextAge (a lazy
// aging hint, normalized to zero by both recovery paths before first
// use), in-memory caches, and statistics.
func (d *Drive) StateDigest() string {
	d.mu.Lock()
	defer d.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "nextOID=%d window=%d auditSeq=%d\n", d.nextOID, d.window, d.auditSeq)
	fmt.Fprintf(&b, "totals live=%d hist=%d\n", d.usage.liveBlocks(), d.usage.historyBlocks())

	fmt.Fprintf(&b, "audit n=%d\n", len(d.auditBlocks))
	for _, r := range d.auditBlocks {
		fmt.Fprintf(&b, "  audit addr=%d firstSeq=%d lastTime=%d\n", r.addr, r.firstSeq, r.lastTime)
	}

	fmt.Fprintf(&b, "objects n=%d\n", len(d.objOrder))
	for _, id := range d.objOrder {
		o := d.objects[id]
		fmt.Fprintf(&b, "  obj %d nextVer=%d cpVer=%d root=%d jhead=%d jtail=%d floorVer=%d floorTime=%d lmFloor=%d pruned=%v\n",
			o.id, o.nextVersion, o.cpVersion, o.inodeRoot, o.jhead, o.jtail, o.floorVersion, o.floorTime, o.lmFloor, o.pruned)
		fmt.Fprintf(&b, "    cpBlocks=%v\n", o.cpBlocks)
		for _, ln := range o.landmarks {
			fmt.Fprintf(&b, "    landmark t=%d v=%d sector=%d\n", ln.time, ln.version, ln.sector)
		}
	}

	type jref struct {
		addr uint64
		n    int
	}
	refs := make([]jref, 0, len(d.jblockRef))
	for a, n := range d.jblockRef {
		refs = append(refs, jref{uint64(a), n})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].addr < refs[j].addr })
	fmt.Fprintf(&b, "jblockRef n=%d\n", len(refs))
	for _, r := range refs {
		fmt.Fprintf(&b, "  jref addr=%d n=%d\n", r.addr, r.n)
	}

	nSeg := d.log.NumSegments()
	for seg := int64(0); seg < nSeg; seg++ {
		live, hist := d.usage.occupancy(seg)
		if d.log.IsFree(seg) {
			fmt.Fprintf(&b, "seg %d free\n", seg)
			continue
		}
		fmt.Fprintf(&b, "seg %d live=%d hist=%d\n", seg, live, hist)
	}
	return b.String()
}
