package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"s4/internal/harness/israce"
	"s4/internal/seglog"
	"s4/internal/types"
)

func sampleEntries() []*Entry {
	return []*Entry{
		{Type: EntCreate, Version: 1, Time: 100, User: 3, Client: 9},
		{Type: EntWrite, Version: 2, Time: 200, User: 3, Client: 9,
			FirstBlock: 4,
			Old:        []seglog.BlockAddr{0, 17},
			New:        []seglog.BlockAddr{901, 902},
			OldSize:    100, NewSize: 24576},
		{Type: EntTruncate, Version: 3, Time: 300, User: 3, Client: 9,
			FirstBlock: 1,
			Old:        []seglog.BlockAddr{801, 802, 803},
			OldSize:    24576, NewSize: 4096},
		{Type: EntSetAttr, Version: 4, Time: 400, User: 1, Client: 2,
			OldAttr: []byte("old attr"), NewAttr: []byte("the new attribute blob")},
		{Type: EntSetACL, Version: 5, Time: 500, User: 0, Client: 1,
			ACLIndex: 3,
			OldACL:   types.ACLEntry{User: 7, Perm: types.PermRead},
			NewACL:   types.ACLEntry{User: 7, Perm: types.PermAll}},
		{Type: EntDelete, Version: 6, Time: 600, User: 3, Client: 9, OldSize: 4096},
		{Type: EntCheckpoint, Version: 6, Time: 700, Image: seedImage},
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, e := range sampleEntries() {
		got, rest, err := Decode(e.Encode(nil))
		if err != nil {
			t.Fatalf("%v: decode: %v", e.Type, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", e.Type, len(rest))
		}
		if !entriesEqual(&got, e) {
			t.Fatalf("%v: round trip mismatch\n got %+v\nwant %+v", e.Type, got, *e)
		}
	}
}

// entriesEqual compares semantically: nil and empty slices are the same.
func entriesEqual(a, b *Entry) bool {
	norm := func(e Entry) Entry {
		if len(e.Old) == 0 {
			e.Old = nil
		}
		if len(e.New) == 0 {
			e.New = nil
		}
		if len(e.OldAttr) == 0 {
			e.OldAttr = nil
		}
		if len(e.NewAttr) == 0 {
			e.NewAttr = nil
		}
		if len(e.Image) == 0 {
			e.Image = nil
		}
		return e
	}
	x, y := norm(*a), norm(*b)
	return reflect.DeepEqual(x, y)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := Decode([]byte{0xFF, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Truncated write entry.
	e := &Entry{Type: EntWrite, Version: 1, Time: 1, New: []seglog.BlockAddr{1, 2}, Old: []seglog.BlockAddr{0, 0}}
	enc := e.Encode(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPropertyWriteEntryRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	f := func(version uint64, ts int64, first uint32, n uint8, oldSize, newSize uint64) bool {
		k := int(n)%MaxBlocksPerEntry + 1
		e := &Entry{
			Type: EntWrite, Version: version, Time: types.Timestamp(ts),
			User: types.UserID(rnd.Uint32()), Client: types.ClientID(rnd.Uint32()),
			FirstBlock: uint64(first), OldSize: oldSize, NewSize: newSize,
			Old: make([]seglog.BlockAddr, k), New: make([]seglog.BlockAddr, k),
		}
		for i := 0; i < k; i++ {
			e.Old[i] = seglog.BlockAddr(rnd.Uint64() >> 8)
			e.New[i] = seglog.BlockAddr(rnd.Uint64() >> 8)
		}
		got, rest, err := Decode(e.Encode(nil))
		return err == nil && len(rest) == 0 && entriesEqual(&got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSectorRoundTrip(t *testing.T) {
	entries := sampleEntries()
	sec, err := EncodeSector(77, 1234, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec) > SectorSize {
		t.Fatalf("sector too large: %d", len(sec))
	}
	obj, prev, got, ok, err := DecodeSector(sec)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if obj != 77 || prev != 1234 {
		t.Fatalf("header: obj=%v prev=%v", obj, prev)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries: %d, want %d", len(got), len(entries))
	}
	for i := range got {
		if !entriesEqual(&got[i], entries[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestSectorLimits(t *testing.T) {
	if _, err := EncodeSector(1, 0, nil); err == nil {
		t.Fatal("empty sector accepted")
	}
	// Overflow: entries with large attrs.
	big := &Entry{Type: EntSetAttr, OldAttr: bytes.Repeat([]byte{1}, 2000), NewAttr: bytes.Repeat([]byte{2}, 2000)}
	if _, err := EncodeSector(1, 0, []*Entry{big, big}); err == nil {
		t.Fatal("overflowing sector accepted")
	}
}

// TestFitSector pins the greedy packer at its edges: entries that fill
// a sector's payload to the byte all fit, one byte more leaves the last
// one out, what is packed is EncodeSector of that prefix byte for byte,
// and nothing is packed when nothing fits.
func TestFitSector(t *testing.T) {
	entries := sampleEntries()
	used := 0
	for _, e := range entries {
		used += len(e.Encode(nil))
	}
	// filler is a setattr entry whose encoding is size bytes long.
	filler := func(size int) *Entry {
		for n := size; n >= 0; n-- {
			e := &Entry{Type: EntSetAttr, Version: 8, Time: 800, NewAttr: bytes.Repeat([]byte{7}, n)}
			if len(e.Encode(nil)) == size {
				return e
			}
		}
		t.Fatalf("no setattr entry encodes in %d bytes", size)
		return nil
	}
	exact := append(entries, filler(SectorCapacity-used))
	sec, n := FitSector(77, 1234, exact)
	if n != len(exact) || len(sec) != SectorSize {
		t.Fatalf("entries filling the payload exactly: %d of %d packed into %d bytes", n, len(exact), len(sec))
	}
	if want, err := EncodeSector(77, 1234, exact); err != nil || !bytes.Equal(sec, want) {
		t.Fatalf("a full sector differs from EncodeSector (%v)", err)
	}

	over := append(entries, filler(SectorCapacity-used+1), exact[0])
	sec, n = FitSector(77, 1234, over)
	if n != len(entries) {
		t.Fatalf("one byte over: %d of %d packed, want %d", n, len(over), len(entries))
	}
	if want, err := EncodeSector(77, 1234, over[:n]); err != nil || !bytes.Equal(sec, want) {
		t.Fatalf("the packed prefix differs from EncodeSector of it (%v)", err)
	}
	if _, err := EncodeSector(77, 1234, over); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("EncodeSector of entries that overflow a sector: %v, want ErrTooLarge", err)
	}

	big := &Entry{Type: EntSetAttr, NewAttr: make([]byte, SectorSize)}
	for _, es := range [][]*Entry{nil, {big}, {big, entries[0]}} {
		if sec, n := FitSector(1, 0, es); n != 0 || sec != nil {
			t.Fatalf("%d entries led by %d bytes: %d packed into %d bytes, want none", len(es), len(big.Encode(nil)), n, len(sec))
		}
	}
}

func TestDecodeSectorRejectsCorrupt(t *testing.T) {
	if _, _, _, _, err := DecodeSector(make([]byte, 4)); err == nil {
		t.Fatal("short sector accepted")
	}
	sec, _ := EncodeSector(1, 0, sampleEntries()[:1])
	sec[0] ^= 0xFF
	if _, _, _, ok, err := DecodeSector(sec); err != nil || ok {
		t.Fatalf("bad magic must read as empty slot: ok=%v err=%v", ok, err)
	}
	// A valid header with a truncated entry stream is corrupt.
	sec2, _ := EncodeSector(1, 0, sampleEntries()[:2])
	if _, _, _, _, err := DecodeSector(sec2[:SectorHeaderSize+1]); err == nil {
		t.Fatal("torn sector accepted")
	}
}

// TestSectorChecksumCatchesRot flips every byte of an encoded sector in
// turn and requires the decode to fail, read as empty, or — never —
// return success with different content. Journal sectors are rewritten
// in place until their segment seals, so partial segment summaries
// cannot checksum them; the sector CRC is the only thing standing
// between bit rot and the replay path.
func TestSectorChecksumCatchesRot(t *testing.T) {
	entries := sampleEntries()
	sec, err := EncodeSector(77, 1234, entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sec {
		rotted := append([]byte(nil), sec...)
		rotted[i] ^= 0x40
		obj, prev, got, ok, err := DecodeSector(rotted)
		if err != nil || !ok {
			continue // detected: that is the contract
		}
		if obj != 77 || prev != 1234 || len(got) != len(entries) {
			t.Fatalf("byte %d: rot decoded cleanly to different header/count", i)
		}
		for j := range got {
			if !entriesEqual(&got[j], entries[j]) {
				t.Fatalf("byte %d: rot decoded cleanly to different entry %d", i, j)
			}
		}
		t.Fatalf("byte %d: rot not detected", i)
	}
}

// TestDecodeSectorV1Rejected hand-builds a pre-checksum ("S4JL", no crc
// field) sector: it must read as an empty slot, never as entries, so no
// journal bytes reach replay without a checksum.
func TestDecodeSectorV1Rejected(t *testing.T) {
	e := &Entry{Type: EntCreate, Version: 1, Time: 42, User: 7}
	buf := make([]byte, 4+8+8+2)
	binary.LittleEndian.PutUint32(buf[0:], 0x53344A4C)
	binary.LittleEndian.PutUint64(buf[4:], 9)
	binary.LittleEndian.PutUint64(buf[12:], 333)
	binary.LittleEndian.PutUint16(buf[20:], 1)
	buf = e.Encode(buf)
	if _, _, got, ok, err := DecodeSector(buf); err != nil || ok || got != nil {
		t.Fatalf("v1 sector decoded: ok=%v err=%v entries=%d", ok, err, len(got))
	}
	sa := MakeSectorAddr(5, 0)
	if _, _, _, err := ReadSector(memReader{5: blockWith(buf)}, sa); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("reading a v1 sector: %v, want ErrCorrupt", err)
	}
}

// memReader maps block addresses to 4KB blocks for walk tests.
type memReader map[seglog.BlockAddr][]byte

func (m memReader) Read(addr seglog.BlockAddr, buf []byte) error {
	copy(buf, m[addr])
	return nil
}

// at packs a sector blob into slot 0 of a fresh block.
func blockWith(sec []byte) []byte {
	b := make([]byte, seglog.BlockSize)
	copy(b, sec)
	return b
}

// walkBackward visits obj's journal entries newest-first from the sector
// at head, over WalkSectors with the read the drive's chain walker gives
// it: every sector through one block buffer, and a sector that is not
// obj's refused.
func walkBackward(r SectorReader, obj types.ObjectID, head SectorAddr, fn func(e *Entry) (stop bool, err error)) error {
	buf := make([]byte, seglog.BlockSize)
	return WalkSectors(func(sa SectorAddr) (SectorAddr, []Entry, error) {
		if err := r.Read(sa.Block(), buf); err != nil {
			return NilSector, nil, err
		}
		got, prev, entries, ok, err := DecodeSector(buf[sa.Slot()*SectorSize:][:SectorSize])
		if err == nil && (!ok || got != obj) {
			err = fmt.Errorf("sector at %d belongs to %v (ok=%v), expected %v: %w", sa, got, ok, obj, types.ErrCorrupt)
		}
		return prev, entries, err
	}, head, NilSector, func(_, _ SectorAddr, entries []Entry) (bool, error) {
		for i := len(entries) - 1; i >= 0; i-- {
			if stop, err := fn(&entries[i]); stop || err != nil {
				return true, err
			}
		}
		return false, nil
	})
}

func TestWalkBackward(t *testing.T) {
	// Build a 3-sector chain: versions 1..3 in sector A, 4..5 in B, 6 in C.
	mk := func(obj types.ObjectID, prev SectorAddr, vs ...uint64) []byte {
		var es []*Entry
		for _, v := range vs {
			es = append(es, &Entry{Type: EntWrite, Version: v, Time: types.Timestamp(v * 10)})
		}
		sec, err := EncodeSector(obj, prev, es)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	a := MakeSectorAddr(100, 0)
	b := MakeSectorAddr(200, 0)
	c := MakeSectorAddr(300, 0)
	r := memReader{
		100: blockWith(mk(5, 0, 1, 2, 3)),
		200: blockWith(mk(5, a, 4, 5)),
		300: blockWith(mk(5, b, 6)),
	}
	var versions []uint64
	err := walkBackward(r, 5, c, func(e *Entry) (bool, error) {
		versions = append(versions, e.Version)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 5, 4, 3, 2, 1}
	if !reflect.DeepEqual(versions, want) {
		t.Fatalf("walk order %v, want %v", versions, want)
	}

	// Early stop.
	versions = versions[:0]
	err = walkBackward(r, 5, c, func(e *Entry) (bool, error) {
		versions = append(versions, e.Version)
		return e.Version == 4, nil
	})
	if err != nil || !reflect.DeepEqual(versions, []uint64{6, 5, 4}) {
		t.Fatalf("early stop: %v %v", versions, err)
	}

	// Wrong object detected.
	err = walkBackward(r, 6, c, func(e *Entry) (bool, error) { return false, nil })
	if !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("object mismatch: %v, want ErrCorrupt", err)
	}
}

// TestWalkSectorsEndsOnLoopingChain walks chains whose links lead back
// up the chain, the shape a sector link into a reused segment takes. A
// loop through falling versions must fail on the first version that
// rises, and a loop inside one version's run (a Flush's merge entries)
// on the first sector met twice, each with ErrCorrupt. The reader
// refuses a 64th read, so a walk with no guard fails instead of
// spinning.
func TestWalkSectorsEndsOnLoopingChain(t *testing.T) {
	errUnbounded := errors.New("walk did not end")
	// chain: sector i holds versions vers[i], links to next[i].
	walk := func(vers [][]uint64, next []int, from int) (int, error) {
		reads := 0
		read := func(sa SectorAddr) (SectorAddr, []Entry, error) {
			if reads++; reads >= 64 {
				return NilSector, nil, errUnbounded
			}
			i := int(sa.Block())
			var es []Entry
			for _, v := range vers[i] {
				es = append(es, Entry{Type: EntWrite, Version: v})
			}
			prev := NilSector
			if next[i] >= 0 {
				prev = MakeSectorAddr(seglog.BlockAddr(next[i]), 0)
			}
			return prev, es, nil
		}
		visited := 0
		err := WalkSectors(read, MakeSectorAddr(seglog.BlockAddr(from), 0), NilSector, func(_, _ SectorAddr, _ []Entry) (bool, error) {
			visited++
			return false, nil
		})
		return visited, err
	}
	for _, c := range []struct {
		name    string
		vers    [][]uint64
		next    []int
		from    int
		visited int // sectors fn sees before the walk fails
		err     string
	}{
		// 3 → 2 → 1 → 3: v9 comes back below v2.
		{"falling versions", [][]uint64{nil, {2, 3}, {4, 5}, {6, 9}}, []int{-1, 3, 1, 2}, 3, 3, "revisits versions"},
		// 3 → 2 → 1 → 2, every sector at v7: the run meets sector 2 again.
		{"one version", [][]uint64{nil, {7, 7}, {7}, {7, 7, 7}}, []int{-1, 2, 1, 2}, 3, 3, "revisits sector"},
		// A sector that links to itself.
		{"self link", [][]uint64{nil, {4}}, []int{-1, 1}, 1, 1, "revisits sector"},
	} {
		visited, err := walk(c.vers, c.next, c.from)
		if !errors.Is(err, types.ErrCorrupt) || !strings.Contains(err.Error(), c.err) || visited != c.visited {
			t.Errorf("%s: walk visited %d sectors, err %v; want %d and ErrCorrupt %q", c.name, visited, err, c.visited, c.err)
		}
	}
	// A chain that keeps the rules — falling, then a one-version run —
	// walks to its end.
	if visited, err := walk([][]uint64{nil, {1, 2}, {3, 3}, {3, 4}}, []int{-1, -1, 1, 2}, 3); err != nil || visited != 3 {
		t.Fatalf("well-formed chain: visited %d, err %v", visited, err)
	}
}

// chainOf builds an n-sector chain for obj, one EntCreate-shaped entry
// per sector (an entry with no slices of its own, so decoding a sector
// allocates its entry slice and nothing else), and returns its head.
func chainOf(t *testing.T, r memReader, obj types.ObjectID, n int) SectorAddr {
	t.Helper()
	prev := NilSector
	for i := 1; i <= n; i++ {
		sec, err := EncodeSector(obj, prev, []*Entry{{Type: EntCreate, Version: uint64(i), Time: types.Timestamp(i)}})
		if err != nil {
			t.Fatal(err)
		}
		r[seglog.BlockAddr(100+i)] = blockWith(sec)
		prev = MakeSectorAddr(seglog.BlockAddr(100+i), 0)
	}
	return prev
}

// TestWalkBackwardAllocatesPerWalk pins the walk's buffer discipline as a
// count: over a read that owns one block buffer however long the chain,
// WalkSectors adds nothing of its own, so a further sector costs what
// decoding it costs and nothing more. When
// every sector read allocated its own 4 KB block, a deep-chain restart
// allocated 6 MB of them per open.
func TestWalkBackwardAllocatesPerWalk(t *testing.T) {
	r := memReader{}
	short := chainOf(t, r, 5, 8)
	long := chainOf(t, r, 5, 64) // rebuilds the same blocks, and 56 more
	walk := func(head SectorAddr) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := walkBackward(r, 5, head, func(*Entry) (bool, error) { return false, nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	sector := r[101][:SectorSize]
	decode := testing.AllocsPerRun(20, func() {
		if _, _, _, ok, err := DecodeSector(sector); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	a8, a64 := walk(short), walk(long)
	if a64-a8 != (64-8)*decode {
		t.Fatalf("8 sectors: %.0f allocations, 64 sectors: %.0f; want %.0f (one decode) per further sector, not %.2f",
			a8, a64, decode, (a64-a8)/(64-8))
	}
	if a8 != 8*decode+1 {
		t.Fatalf("8-sector walk: %.0f allocations, want 8 decodes of %.0f and the one buffer", a8, decode)
	}
}

// fullSectorOfWrites packs as many one-block overwrites as a sector
// holds: the sector a hot object's chain is made of.
func fullSectorOfWrites(t testing.TB) []byte {
	var entries []*Entry
	for v := uint64(1); v <= SectorCapacity/minEntrySize; v++ {
		entries = append(entries, &Entry{Type: EntWrite, Version: v, Time: types.Timestamp(1e15 + v), User: 3, Client: 9,
			FirstBlock: v % 8, Old: []seglog.BlockAddr{seglog.BlockAddr(9000 + v)}, New: []seglog.BlockAddr{seglog.BlockAddr(9100 + v)},
			OldSize: 32768, NewSize: 32768})
	}
	sec, n := FitSector(5, MakeSectorAddr(77, 3), entries)
	if n == 0 || n == len(entries) {
		t.Fatalf("%d of %d writes fit a sector", n, len(entries))
	}
	return sec
}

// TestDecodeSectorAllocs pins what a sector costs to decode: the entry
// slice and one slab for every address list in it, not an Entry copied
// out by value and two makes per write entry — a deep chain's replay is
// thousands of these. And it pins what the slab must not cost: each list
// is carved with its capacity equal to its length, so growing one
// entry's list (Flush's rewrite appends to Old and Dropped) reallocates
// it instead of running into its neighbour's.
func TestDecodeSectorAllocs(t *testing.T) {
	sec := fullSectorOfWrites(t)
	_, _, entries, ok, err := DecodeSector(sec)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, ok, err := DecodeSector(sec); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		DecodeSector(sec)
	}
	runtime.ReadMemStats(&after)
	perSector := (after.TotalAlloc - before.TotalAlloc) / rounds
	entryBytes := uint64(len(entries)) * uint64(unsafe.Sizeof(Entry{}))
	t.Logf("%d write entries: %.0f allocations, %d B per decode (the entries alone are %d B)", len(entries), allocs, perSector, entryBytes)
	if allocs > 3 {
		t.Errorf("a full sector of %d write entries decodes in %.0f allocations, want at most 3", len(entries), allocs)
	}
	if israce.Enabled {
		t.Log("race detector on: allocation sizes are not the program's, byte threshold not checked")
	} else if perSector > entryBytes*9/8+1024 {
		t.Errorf("a full sector decodes into %d B, want the %d B of its entries (rounded up to a size class) and under 1 KB of address lists", perSector, entryBytes)
	}

	for i := 0; i+1 < len(entries); i++ {
		next := entries[i+1]
		wantOld, wantNew := slices.Clone(next.Old), slices.Clone(next.New)
		entries[i].Old = append(entries[i].Old, 0xdead)
		entries[i].New = append(entries[i].New, 0xbeef)
		entries[i].Dropped = append(entries[i].Dropped, 0xf00d)
		if !slices.Equal(next.Old, wantOld) || !slices.Equal(next.New, wantNew) {
			t.Fatalf("appending to entry %d's lists changed entry %d's", i, i+1)
		}
	}
	// The same for a sector whose entries carry all three lists.
	masked, err := EncodeSector(5, NilSector, maskedEntries())
	if err != nil {
		t.Fatal(err)
	}
	_, _, entries, _, err = DecodeSector(masked)
	if err != nil {
		t.Fatal(err)
	}
	want := maskedEntries()
	for i := range entries {
		entries[i].Old = append(entries[i].Old, 0xdead)
		entries[i].New = append(entries[i].New, 0xbeef)
		entries[i].Dropped = append(entries[i].Dropped, 0xf00d)
	}
	for i := range entries {
		e, w := &entries[i], want[i]
		if !slices.Equal(e.Old[:len(w.Old)], w.Old) || !slices.Equal(e.New[:len(w.New)], w.New) || !slices.Equal(e.Dropped[:len(w.Dropped)], w.Dropped) {
			t.Fatalf("masked entry %d changed when its neighbours' lists grew:\n  %+v\n  %+v", i, *e, *w)
		}
	}
}

// TestDecodeMatchesReference runs every corpus seed through the check
// the fuzzers apply, so a plain go test holds the in-place decoder to
// the reference too, and adds what only canonical input allows:
// re-encoding what was decoded reproduces the bytes consumed.
func TestDecodeMatchesReference(t *testing.T) {
	all := append(append(sampleEntries(), seedEntries()...), maskedEntries()...)
	for _, e := range all {
		enc := e.Encode(nil)
		got, rest, err := Decode(append(enc, 0xEE))
		want, _, wantErr := refDecode(enc)
		if err != nil || wantErr != nil || len(rest) != 1 {
			t.Fatalf("%v entry: %v / %v, %d bytes left", e.Type, err, wantErr, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v entry differs from the reference:\n  %+v\n  %+v", e.Type, got, want)
		}
		if again := got.Encode(nil); !bytes.Equal(again, enc) {
			t.Fatalf("%v entry re-encodes to different bytes", e.Type)
		}
	}
	for _, set := range [][]*Entry{sampleEntries(), seedEntries(), maskedEntries()} {
		sec, err := EncodeSector(42, 7, set)
		if err != nil {
			t.Fatal(err)
		}
		checkSectorAgainstReference(t, sec)
		// Truncated and bit-flipped images must fail alike too.
		for cut := SectorHeaderSize; cut < len(sec); cut += 7 {
			checkSectorAgainstReference(t, sec[:cut])
			flipped := append([]byte(nil), sec...)
			flipped[cut] ^= 0x5A
			checkSectorAgainstReference(t, flipped)
		}
	}
	checkSectorAgainstReference(t, fullSectorOfWrites(t))
}

// TestDecodedEntriesOutliveTheBuffer is what lets the walk reuse its
// buffer and lets callers keep the *Entry they are handed: nothing
// decoded aliases the bytes it was decoded from. The reader scribbles
// over every block it serves as soon as the next read arrives — what a
// reused buffer does — and the entries collected along the way must
// still equal what was encoded.
func TestDecodedEntriesOutliveTheBuffer(t *testing.T) {
	want := sampleEntries()
	older, err := EncodeSector(5, NilSector, want[:4])
	if err != nil {
		t.Fatal(err)
	}
	a := MakeSectorAddr(100, 0)
	newer, err := EncodeSector(5, a, want[4:])
	if err != nil {
		t.Fatal(err)
	}
	r := &scribbleReader{blocks: memReader{100: blockWith(older), 200: blockWith(newer)}}
	var got []*Entry
	if err := walkBackward(r, 5, MakeSectorAddr(200, 0), func(e *Entry) (bool, error) {
		got = append(got, e)
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	r.scribble()
	if len(got) != len(want) {
		t.Fatalf("walk visited %d entries, want %d", len(got), len(want))
	}
	for i, e := range got { // newest first
		if w := want[len(want)-1-i]; !entriesEqual(e, w) {
			t.Fatalf("entry v%d changed under a reused buffer:\n got %+v\nwant %+v", w.Version, *e, *w)
		}
	}
}

// scribbleReader serves blocks like memReader and overwrites the buffer
// of the previous read whenever a new one starts.
type scribbleReader struct {
	blocks memReader
	last   []byte
}

func (s *scribbleReader) scribble() {
	for i := range s.last {
		s.last[i] = 0xFF
	}
}

func (s *scribbleReader) Read(addr seglog.BlockAddr, buf []byte) error {
	s.scribble()
	s.last = buf
	return s.blocks.Read(addr, buf)
}

func TestEntryTypeString(t *testing.T) {
	names := map[EntryType]string{
		EntCreate: "create", EntWrite: "write", EntTruncate: "truncate",
		EntSetAttr: "setattr", EntSetACL: "setacl", EntDelete: "delete",
		EntCheckpoint: "checkpoint", EntryType(42): "entry(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q want %q", k, got, want)
		}
	}
}
