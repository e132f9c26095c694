package seglog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"s4/internal/types"
)

// A partial flush writes its summary snapshot's header and entries only,
// the sectors up to its size, and leaves the rest of the slot as it was
// (DESIGN.md §15.1). These tests hold the format to what makes that safe.

// TestTornSnapshotFallsBack tears a partial flush's snapshot write at
// every sector prefix. The segment has two synced snapshots and the torn
// one describes 52 blocks, four sectors of header and entries: the
// blocks' object ids, keys and times are wide enough that each entry
// takes 33 bytes. Every
// image must open to the previous snapshot: the blocks the torn flush
// carried were never acknowledged and are gone, every acknowledged block
// reads back (verified against the summary's checksum), and the chain
// walk does not fall back to probing. It runs over a never-written
// segment, where the slot's stale bytes are zeros, and over a reused
// one, where the slot holds the previous life's snapshot of the same
// count: a tear keeps that header intact until its first sector lands,
// and the old snapshot, older than the new life's open record, must not
// answer.
func TestTornSnapshotFallsBack(t *testing.T) {
	for _, reused := range []bool{false, true} {
		t.Run(fmt.Sprintf("reused=%v", reused), func(t *testing.T) {
			l, dev := newFaultLog(t, 64)
			rnd := rand.New(rand.NewSource(1))
			type acked struct {
				addr BlockAddr
				data []byte
			}
			// life stages and syncs 10, 10 and 30 blocks of obj into the
			// open segment, and returns what the first two syncs acked.
			life := func(obj types.ObjectID) []acked {
				var out []acked
				for i, n := range []int{10, 10, 30} {
					if i == 2 {
						dev.StartRecording()
					}
					for j := 0; j < n; j++ {
						data := make([]byte, BlockSize)
						rnd.Read(data)
						k := len(out) + j
						a, err := l.Append(KindData, obj<<56, uint64(k)|1<<56, types.Timestamp(1+k)<<56, data)
						if err != nil {
							t.Fatal(err)
						}
						if i < 2 {
							out = append(out, acked{a, data})
						}
					}
					mustSync(t, l)
				}
				return out
			}
			seg := int64(0)
			if reused {
				life(1)
				appendN(t, l, 1, 100, l.Room()) // seal the first life
				if err := l.WriteCheckpoint([]byte("state"), nil); err != nil {
					t.Fatal(err)
				}
				if err := l.FreeSegment(0); err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 3, 300, l.Room()) // fill segment 1: the next append opens its successor
			}
			want := life(2)
			if got := l.SegOf(want[0].addr); got != seg {
				t.Fatalf("the life under test opened segment %d, want %d", got, seg)
			}
			k := dev.Writes() - 1
			w := dev.Record(k)
			slot := l.segBase(seg) + 1 + 52 // 10 + pad + 10 + pad + 30 blocks before it
			if w.Sector != slot*sectorsPerBlock || w.Sectors() != 4 {
				t.Fatalf("last write of the sync: sectors %d+%d, want the 52-entry snapshot at %d+4", w.Sector, w.Sectors(), slot*sectorsPerBlock)
			}
			if reused {
				// The hard case is there: the slot holds a valid snapshot of
				// the previous life, of the count the torn one has.
				img, err := dev.TornImageAt(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				blk := make([]byte, BlockSize)
				if err := readBlocks(img, slot, blk); err != nil {
					t.Fatal(err)
				}
				if h, ok := checkSummary(blk); !ok || h.count != 52 {
					t.Fatalf("slot before the tear: ok=%v count=%d, want the previous life's 52-entry snapshot", ok, h.count)
				}
			}
			// The newest durable snapshot before the torn sync: 10 + pad + 10.
			pre, err := dev.ImageAt(k)
			if err != nil {
				t.Fatal(err)
			}
			sumBefore, ok, err := reopen(t, pre).ReadSummary(seg)
			if err != nil || !ok || len(sumBefore.Entries) != 21 {
				t.Fatalf("before the torn sync: %d entries ok=%v err=%v, want 21", len(sumBefore.Entries), ok, err)
			}
			buf := make([]byte, BlockSize)
			for keep := 0; keep <= w.Sectors(); keep++ {
				img, err := dev.TornImageAt(k, keep)
				if keep == w.Sectors() {
					img, err = dev.ImageAt(k + 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				if why := walkWhy(t, img); why != "" {
					t.Fatalf("keep=%d: walk fell back: %s", keep, why)
				}
				lr := reopen(t, img)
				hits := resumeHits(t, lr)
				sum, ok, err := lr.ReadSummary(seg)
				if err != nil || !ok {
					t.Fatalf("keep=%d: no summary (ok=%v err=%v)", keep, ok, err)
				}
				wantN, wantSeq := len(sumBefore.Entries), sumBefore.Seq
				if keep == w.Sectors() {
					wantN, wantSeq = 52, sumBefore.Seq+1
				}
				if len(sum.Entries) != wantN || sum.Seq != wantSeq || hits[seg] != wantSeq {
					t.Fatalf("keep=%d: summary of %d entries at seq %d, scan hit seq %d; want %d at seq %d",
						keep, len(sum.Entries), sum.Seq, hits[seg], wantN, wantSeq)
				}
				for _, a := range want {
					if err := lr.Read(a.addr, buf); err != nil {
						t.Fatalf("keep=%d: acked block %d: %v", keep, a.addr, err)
					}
					if !bytes.Equal(buf, a.data) {
						t.Fatalf("keep=%d: acked block %d does not read back", keep, a.addr)
					}
				}
			}
		})
	}
}

// TestSummaryCRCCoversHeaderAndEntries is the property FuzzSegSummaryChecksums
// promises, checked at every byte: in a genuine snapshot of 52 entries a
// flipped byte of the header or the entries — anything in [0,16) or
// [20,size) — is rejected, and junk anywhere in the slack after its size
// decodes to the identical summary.
func TestSummaryCRCCoversHeaderAndEntries(t *testing.T) {
	l, _ := newFaultLog(t, 64)
	appendN(t, l, 1, 0, 52)
	sb := make([]byte, BlockSize)
	l.mu.Lock()
	n := l.encodeSummaryLocked(sb, 9, false)
	l.mu.Unlock()
	want, ok, _ := decodeSummary(sb)
	if !ok || len(want.Entries) != 52 {
		t.Fatalf("genuine snapshot: ok=%v, %d entries", ok, len(want.Entries))
	}
	for i := 0; i < n; i++ {
		if i >= 16 && i < 20 {
			continue // the CRC itself
		}
		bad := append([]byte(nil), sb...)
		bad[i] ^= 0x01
		if _, ok, _ := decodeSummary(bad); ok {
			t.Fatalf("byte %d of %d flipped: the summary still decodes", i, n)
		}
	}
	rnd := rand.New(rand.NewSource(1))
	junk := append([]byte(nil), sb...)
	rnd.Read(junk[n:])
	got, ok, _ := decodeSummary(junk)
	if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("junk past byte %d: ok=%v, decodes differently", n, ok)
	}
	binary.LittleEndian.PutUint32(junk[36:], uint32(n+8)) // a longer size: the junk is now covered
	if _, ok, _ := decodeSummary(junk); ok {
		t.Fatal("a size reaching into the junk still decodes")
	}
}
