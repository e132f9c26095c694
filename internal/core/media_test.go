package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// goldenDrive builds the fixed drive TestOnMediaEncodingsGolden pins: a
// drive-wide delta policy, four objects written twelve times each with
// a landmark every four entries, one partition, one checkpoint. Its
// device charges no time, so every timestamp comes from the test's
// ticks: a change to how many sectors the drive writes moves no hash,
// only a change to what it encodes does.
func goldenDrive(t *testing.T) *testEnv {
	clk := vclock.NewVirtual()
	e := newTestDriveOn(t, disk.New(disk.SmallDisk(64<<20), nil), clk, func(o *Options) { o.CheckpointEvery = 4 })
	if err := e.d.SetPolicy(admin, 0, types.Policy{Window: 90 * time.Minute, Mode: types.ModeEveryVersion, DeltaEnabled: true}); err != nil {
		t.Fatal(err)
	}
	var ids []types.ObjectID
	for i := 0; i < 4; i++ {
		ids = append(ids, e.create(alice))
	}
	for round := 0; round < 12; round++ {
		for i, id := range ids {
			blk := bytes.Repeat([]byte{byte('a' + i)}, types.BlockSize)
			blk[round*7] = byte(round)
			e.write(alice, id, uint64(round%3)*types.BlockSize, blk)
			e.tick()
		}
	}
	if err := e.d.PCreate(alice, "home", ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return e
}

// sum is the hex sha256 of the concatenated parts.
func sum(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOnMediaEncodingsGolden pins the bytes of every variable-length
// structure the drive writes to its medium: the object map, the segment
// index, each object's checkpoint root and the landmark entry that
// carries its image, a root with overflow chunks,
// the partition and policy tables, and the three kinds of segment
// summary — a seal, an open record, and a partial flush's snapshot as
// the sectors it wrote of it. A hash that moves is a format change:
// bump the structure's version on purpose, or put the encoder back.
func TestOnMediaEncodingsGolden(t *testing.T) {
	e := goldenDrive(t)
	d := e.d
	d.mu.Lock()
	defer d.mu.Unlock()

	var roots, landmarks [][]byte
	for _, id := range d.objOrder {
		o := d.objects[id]
		if err := d.loadInode(o); err != nil {
			t.Fatal(err)
		}
		cb, err := o.ino.buildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if len(cb.overflow) != 0 {
			t.Fatalf("object %v overflows its root", id)
		}
		roots = append(roots, cb.finishRoot(nil))
		lm := journal.Entry{Type: journal.EntCheckpoint, Version: o.ino.Version, Time: o.ino.ModTime, User: alice.User, Client: alice.Client, Image: o.ino.image()}
		landmarks = append(landmarks, lm.Encode(nil))
	}

	big := newInode(77, 1234, []types.ACLEntry{{User: 7, Perm: types.PermAll}})
	big.Attr = []byte("attr")
	for i := uint64(0); i < 3000; i++ {
		big.setBlock(i*3/2, seglog.BlockAddr(5000+i*i))
	}
	cb, err := big.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.overflow) == 0 {
		t.Fatal("3,000-block inode did not overflow its root")
	}
	var overAddrs []seglog.BlockAddr
	for i := range cb.overflow {
		overAddrs = append(overAddrs, seglog.BlockAddr(900+i))
	}
	bigParts := append([][]byte{cb.finishRoot(overAddrs)}, cb.overflow...)

	parts, err := d.readPartTableLocked(types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(d.policies) != 1 {
		t.Fatalf("%d partitions and %d policies, want 1 and 1", len(parts), len(d.policies))
	}

	// The summaries as the device holds them: segment 0's seal, the open
	// segment's record, and the open segment's newest snapshot, in the
	// slot its staged pad retires or, when the block before the pad is
	// short and neither a journal block nor a pad, right after that
	// block's Len. A partial flush writes a snapshot's header and
	// entries, the size at [36:40), rounded up to a sector.
	cur := d.log.CurrentSegment()
	staged, _, err := d.log.ReadSummary(cur)
	if err != nil {
		t.Fatal(err)
	}
	snap := -1
	for i, en := range staged.Entries {
		if en.Kind == seglog.KindPad {
			snap = i
		}
	}
	if sealed, ok, err := d.log.ReadSummary(0); err != nil || !ok || len(sealed.Entries) != d.log.PayloadBlocks() || cur <= 0 || snap < 0 {
		t.Fatalf("segment 0 not sealed (%d entries, %v), or open segment %d has no snapshot", len(sealed.Entries), err, cur)
	}
	onDisk := func(sector int64, n int) []byte {
		b := make([]byte, n)
		if err := e.dev.ReadSectors(sector, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	sectorOf := func(addr seglog.BlockAddr) int64 { return int64(addr) * (types.BlockSize / disk.SectorSize) }
	roundSector := func(n int) int { return (n + disk.SectorSize - 1) / disk.SectorSize * disk.SectorSize }
	seal := onDisk(sectorOf(d.log.EntryAt(0, 0)-1), types.BlockSize)
	record := onDisk(sectorOf(d.log.EntryAt(cur, 0)-1), types.BlockSize)
	at := sectorOf(d.log.EntryAt(cur, snap))
	if h := staged.Entries[snap-1]; h.Kind != seglog.KindJournal && h.Kind != seglog.KindPad && roundSector(int(h.Len)) < types.BlockSize {
		at -= int64(types.BlockSize-roundSector(int(h.Len))) / disk.SectorSize
	}
	size := int(binary.LittleEndian.Uint32(onDisk(at, disk.SectorSize)[36:]))
	snapshot := onDisk(at, roundSector(size))

	for _, c := range []struct {
		name, got, want string
	}{
		{"object map", sum(d.encodeImapLocked()), "95517f17e928239766c209b9c586620485dcf579c123809c4cb28722edfaffcd"},
		{"segment index", sum(d.encodeSegIndexLocked(true)), "75d432641f7147f551290d75566f77b713e3598f2262a4584a2eefa8bf6f603b"},
		{"object roots", sum(roots...), "392b074f18cc98c7bb9a3e52e7135b1f993d8c5bf2f15a16db011b4cf44cd128"},
		{"landmark entries", sum(landmarks...), "cdc7020577d7ee98c136131776ba6d48e93f456d5e7fab5ecdad03ea27474e95"},
		{"overflowing root", sum(bigParts...), "2a3e3c5f8a9c53a8aeb9233d6920421a2cf7682e72433aab3785409c3c13345b"},
		{"partition table", sum(encodePartTable(parts)), "14c7d1c94b8d10ddb4ca786931f3de92d4ab9f24f60a9076e0a013f7900e4619"},
		{"policy table", sum(encodePolicyTable(d.policies)), "bc9262b8061b5ccf0f5e6f179f006e3c77cc8ef6cae3910c82c9d11df73e51f2"},
		{"sealed summary", sum(seal), "11e3df44041baa79c4235868e14d9ce47eaac40a07b98612157d9997a2df2a98"},
		{"open record", sum(record), "52aaedfee2c50bb32f3510bc2b4718d50bbfdcbc03d3c2f64e2894c697c6ba02"},
		{fmt.Sprintf("%d-entry snapshot, %d bytes", snap, len(snapshot)), sum(snapshot), "202afa44570efa0b9c4b0b4aee2f5bf7d1ff23096504fd95c5f3d86b4b6d42b6"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestDecodersRefuseLyingCounts: a count read back from the medium
// never sizes an allocation. A rotten pair count in a genuine inode
// root, and a table count the table's bytes cannot hold, are refused
// with ErrCorrupt before the decoder allocates for them.
func TestDecodersRefuseLyingCounts(t *testing.T) {
	in := newInode(42, 1, []types.ACLEntry{{User: 7, Perm: types.PermAll}})
	for i := uint64(0); i < 8; i++ {
		in.setBlock(i, seglog.BlockAddr(100+i))
	}
	cb, err := in.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	pairCountAt := len(cb.rootPfx) + 2 // after an empty overflow list
	rootWithPairs := func(n uint32) []byte {
		root := make([]byte, seglog.BlockSize)
		copy(root, cb.finishRoot(nil))
		binary.LittleEndian.PutUint32(root[pairCountAt:], n)
		return root
	}
	// withCount replaces a genuine table's leading count.
	withCount := func(table []byte, n uint64) []byte {
		_, m := binary.Uvarint(table)
		return append(binary.AppendUvarint(nil, n), table[m:]...)
	}
	part := withCount(encodePartTable([]PartEntry{{Name: "home", Obj: 1000}}), 1<<20)
	pol := withCount(encodePolicyTable(map[types.ObjectID]types.Policy{0: {Mode: types.ModeLandmarkOnly, DeltaEnabled: true}}), 1<<20)
	root22, rootMax := rootWithPairs(1<<22), rootWithPairs(0xFFFFFFFF)

	// The first case allocated 144 MiB before this test existed; a lie
	// that large fails it cleanly, one of 0xFFFFFFFF would kill it.
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"root pair count 2^22", func() error { _, _, err := decodeInodeRoot(memReader{}, root22); return err }},
		{"root pair count 0xFFFFFFFF", func() error { _, _, err := decodeInodeRoot(memReader{}, rootMax); return err }},
		{"partition table count 2^20", func() error { _, err := decodePartTable(part); return err }},
		{"policy table count 2^20", func() error { _, err := decodePolicyTable(pol); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		kib := (after.TotalAlloc - before.TotalAlloc) >> 10
		t.Logf("%s: %d KiB allocated, err %v", c.name, kib, err)
		if !errors.Is(err, types.ErrCorrupt) || kib >= 64 {
			t.Fatalf("%s: err %v after %d KiB allocated, want ErrCorrupt under 64 KiB", c.name, err, kib)
		}
	}
}

// fuzzRoots builds the genuine roots FuzzInodeRootDecode starts from: an
// inline root, a landmark-sized one, and one whose pairs overflow into
// chunks rd serves. lying is the inline root with a pair count of
// 0xFFFFFFFF.
func fuzzRoots(tb testing.TB) (roots [][]byte, rd memReader, lying []byte) {
	rd = memReader{}
	for _, nBlocks := range []uint64{3, 300, 1500} {
		in := newInode(types.ObjectID(1000+nBlocks), 5, []types.ACLEntry{{User: 7, Perm: types.PermAll}, {User: types.EveryoneID, Perm: types.PermRead}})
		in.Attr = []byte("attr")
		in.Size = nBlocks * types.BlockSize
		for i := uint64(0); i < nBlocks; i++ {
			in.setBlock(i*2, seglog.BlockAddr(4096+i*i))
		}
		cb, err := in.buildCheckpoint()
		if err != nil {
			tb.Fatal(err)
		}
		var addrs []seglog.BlockAddr
		for _, chunk := range cb.overflow {
			a := seglog.BlockAddr(2000 + len(rd))
			rd[a] = append(chunk, make([]byte, seglog.BlockSize-len(chunk))...)
			addrs = append(addrs, a)
		}
		if nBlocks == 1500 && len(addrs) == 0 {
			tb.Fatal("a 1,500-block root did not overflow")
		}
		roots = append(roots, cb.finishRoot(addrs))
		if lying == nil {
			lying = cb.finishRoot(addrs)
			binary.LittleEndian.PutUint32(lying[len(cb.rootPfx)+2:], 0xFFFFFFFF)
		}
	}
	return roots, rd, lying
}

// landmarkEntryImage is the image a genuine landmark entry carries, as
// its journal sector gives it back: a drive that emits a landmark every
// second entry writes an object three times, and its chain is walked.
func landmarkEntryImage(tb testing.TB) []byte {
	clk := vclock.NewVirtual()
	d, err := Format(disk.New(disk.SmallDisk(8<<20), clk), Options{Clock: clk, SegBlocks: 16, CheckpointBlocks: 4, Window: time.Hour, CheckpointEvery: 2})
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	id, err := d.Create(alice, nil, []byte("attr"))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Millisecond)
		if err := d.Write(alice, id, uint64(i)*types.BlockSize, []byte("landmark")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	var img []byte
	o := d.objects[id]
	err = d.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, entries []journal.Entry) (bool, error) {
		for i := range entries {
			if entries[i].Type == journal.EntCheckpoint && landmarkImage(id, &entries[i]) != nil {
				img = entries[i].Image
			}
		}
		return img != nil, nil
	})
	if err != nil || img == nil {
		tb.Fatalf("no landmark image in the chain (%v)", err)
	}
	return img
}

// FuzzInodeRootDecode throws hostile roots at decodeInodeRoot, whose
// overflow chunks come from a fixed set of genuine ones, and the image
// of a genuine landmark entry. It never panics, every refusal wraps
// ErrCorrupt, and an accepted root re-encodes to one that decodes to
// the same inode.
func FuzzInodeRootDecode(f *testing.F) {
	roots, rd, lying := fuzzRoots(f)
	roots = append(roots, landmarkEntryImage(f))
	for _, root := range roots {
		f.Add(root)
		for _, n := range []int{0, 3, 40, 57, len(root) / 2, len(root) - 1} {
			f.Add(root[:n])
		}
	}
	f.Add(lying)

	f.Fuzz(func(t *testing.T, root []byte) {
		in, _, err := decodeInodeRoot(rd, root)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		cb, err := in.buildCheckpoint()
		if err != nil {
			return // an accepted stream may not fit one root when re-chunked
		}
		rd2 := memReader{}
		var addrs []seglog.BlockAddr
		for i, chunk := range cb.overflow {
			a := seglog.BlockAddr(i + 1)
			rd2[a] = chunk
			addrs = append(addrs, a)
		}
		again, _, err := decodeInodeRoot(rd2, cb.finishRoot(addrs))
		if err != nil {
			t.Fatalf("re-decode of an accepted root failed: %v", err)
		}
		if !reflect.DeepEqual(in, again) {
			t.Fatalf("round trip changed the inode:\n  %+v\n  %+v", in, again)
		}
	})
}

// FuzzReservedTables throws hostile bytes at the partition and policy
// table decoders. Neither panics, every refusal wraps ErrCorrupt, and an
// accepted table survives encode and decode unchanged (the partition
// table up to the order its encoder sorts it in).
func FuzzReservedTables(f *testing.F) {
	part := encodePartTable([]PartEntry{{Name: "home", Obj: 1000}, {Name: "var", Obj: 1001}, {Name: "", Obj: 7}})
	pol := encodePolicyTable(map[types.ObjectID]types.Policy{
		0:    {Window: time.Hour, Mode: types.ModeEveryVersion, DeltaEnabled: true},
		1000: {Mode: types.ModeLandmarkOnly},
	})
	for _, table := range [][]byte{part, pol} {
		f.Add(table)
		f.Add(table[:len(table)/2])
		_, m := binary.Uvarint(table)
		for _, n := range []uint64{1 << 20, 1<<20 + 1, 0xFFFFFFFF} {
			f.Add(append(binary.AppendUvarint(nil, n), table[m:]...))
		}
	}
	f.Add([]byte{})

	byNameObj := func(a, b PartEntry) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Obj, b.Obj))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := decodePartTable(data)
		if err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("partition table: error %v does not wrap ErrCorrupt", err)
		}
		if err == nil {
			again, err := decodePartTable(encodePartTable(slices.Clone(parts)))
			if err != nil {
				t.Fatalf("re-decode of an accepted partition table failed: %v", err)
			}
			slices.SortFunc(parts, byNameObj)
			slices.SortFunc(again, byNameObj)
			if !reflect.DeepEqual(parts, again) {
				t.Fatalf("round trip changed the partition table:\n  %v\n  %v", parts, again)
			}
		}
		pols, err := decodePolicyTable(data)
		if err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("policy table: error %v does not wrap ErrCorrupt", err)
		}
		if err == nil {
			again, err := decodePolicyTable(encodePolicyTable(pols))
			if err != nil {
				t.Fatalf("re-decode of an accepted policy table failed: %v", err)
			}
			if !reflect.DeepEqual(pols, again) {
				t.Fatalf("round trip changed the policy table:\n  %v\n  %v", pols, again)
			}
		}
	})
}
