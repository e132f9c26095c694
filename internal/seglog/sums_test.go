package seglog

import (
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// TestPropertySummarySumsMatchDevice runs random sequences of Append,
// AppendVec, RewriteRange (half of them of journal blocks, many after
// the snapshot that first described them) and Sync, with segments
// sealing as they fill, and after every Sync holds the durable summary
// of every segment written so far to the device: each sum is the CRC of
// the block on the device as a read sees it, zero-filled past its Len
// rounded up to a sector (clearTails), or zero where DESIGN.md §15 says zero — a pad
// slot, or a journal block under a partial snapshot. Summaries cache
// each block's sum until its bytes change, so a cache that missed an
// invalidation shows here as a stale sum; and each staged or rewritten
// block image is hashed at most once, where hashing every staged block
// at every snapshot costs O(segment fill) per Sync.
func TestPropertySummarySumsMatchDevice(t *testing.T) {
	kinds := []Kind{KindData, KindJournal, KindAudit, KindInode}
	for seed := int64(1); seed <= 20; seed++ {
		l, _ := newLog(t, 16<<20)
		rnd := rand.New(rand.NewSource(seed))
		payload := func() []byte {
			b := make([]byte, 1+rnd.Intn(BlockSize))
			rnd.Read(b)
			return b
		}
		segs := map[int64]bool{}
		var addrs, journal []BlockAddr
		staged, rewrites := int64(0), int64(0)
		note := func(kind Kind, as ...BlockAddr) {
			for _, a := range as {
				segs[l.SegOf(a)] = true
				addrs = append(addrs, a)
				if kind == KindJournal {
					journal = append(journal, a)
				}
				staged++
			}
		}
		for step := 0; step < 400; step++ {
			switch r := rnd.Intn(10); {
			case r < 4:
				kind := kinds[rnd.Intn(len(kinds))]
				a, err := l.Append(kind, 9, uint64(step), 0, payload())
				if err != nil {
					t.Fatal(err)
				}
				note(kind, a)
			case r < 6:
				kind := kinds[rnd.Intn(len(kinds))]
				es := make([]VecEntry, 1+rnd.Intn(5))
				for i := range es {
					es[i] = VecEntry{Key: uint64(i), Data: payload()}
				}
				as, err := l.AppendVec(kind, 9, es...)
				if err != nil {
					t.Fatal(err)
				}
				note(kind, as...)
			case r < 9:
				// Mostly recent blocks, so most rewrites land in the open
				// segment; the rest must be refused, not applied.
				from := addrs
				if rnd.Intn(2) == 0 {
					from = journal
				}
				if len(from) == 0 {
					continue
				}
				a := from[len(from)-1-rnd.Intn(min(len(from), 24))]
				off := rnd.Intn(BlockSize)
				b := make([]byte, 1+rnd.Intn(BlockSize-off))
				rnd.Read(b)
				ok, err := l.RewriteRange(a, off, b)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					rewrites++
				}
			default:
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				checkDurableSums(t, l, segs)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		checkDurableSums(t, l, segs)
		if l.hashed > staged+rewrites {
			t.Errorf("seed %d: summaries computed %d block checksums for %d staged blocks and %d rewrites: a block image was hashed twice",
				seed, l.hashed, staged, rewrites)
		}
		if seed == 1 {
			t.Logf("seed 1: %d blocks staged, %d rewritten in the open segment, %d checksums computed, %d segments",
				staged, rewrites, l.hashed, len(segs))
		}
	}
}

// checkDurableSums compares every durable summary sum of segs, decoded
// from the device, with the device, and the summary of each sealed one
// with what the log holds for it.
func checkDurableSums(t *testing.T, l *Log, segs map[int64]bool) {
	t.Helper()
	cur := l.CurrentSegment()
	blk := make([]byte, BlockSize)
	for seg := range segs {
		sb, h, _, err := l.newestSummary(seg, &scanBuf{blk: make([]byte, BlockSize)})
		if err != nil || sb == nil || h.count == 0 {
			t.Fatalf("segment %d: synced but no durable summary (%v)", seg, err)
		}
		sum, err := decodeEntries(sb, h)
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if seg != cur {
			if held, ok, err := l.ReadSummary(seg); err != nil || !ok || !reflect.DeepEqual(held, sum) {
				t.Fatalf("segment %d: the log holds summary %+v (ok=%v, %v), the device %+v", seg, held, ok, err, sum)
			}
		}
		// A seal summary describes every payload slot; a partial snapshot
		// occupies one of them.
		sealed := len(sum.Entries) == l.PayloadBlocks()
		if sealed == (seg == cur) {
			t.Fatalf("segment %d: sealed=%v but the open segment is %d", seg, sealed, cur)
		}
		for i, e := range sum.Entries {
			if err := readBlocks(l.dev, l.segBase(seg)+1+int64(i), blk); err != nil {
				t.Fatal(err)
			}
			clearTails(sum.Entries[i:i+1], blk)
			want := crc32.ChecksumIEEE(blk)
			if e.Kind == KindPad || e.Kind == KindJournal && !sealed {
				want = 0
			}
			if e.Sum != want {
				t.Fatalf("segment %d (sealed=%v) slot %d (%v): summary sum %08x, want %08x",
					seg, sealed, i, e.Kind, e.Sum, want)
			}
		}
	}
}
