package seglog

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
)

// gatedDevice holds the first device write after arm until release.
type gatedDevice struct {
	disk.Device
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (g *gatedDevice) arm() {
	g.held, g.release = make(chan struct{}), make(chan struct{})
	g.armed.Store(true)
}

func (g *gatedDevice) WriteSectors(sector int64, buf []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.held)
		<-g.release
	}
	return g.Device.WriteSectors(sector, buf)
}

// within runs f and fails the test if it has not returned in a few
// seconds: a caller that waits for a held device write never returns.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for a flush's device write", what)
	}
}

// pending reports an error if ch delivers within a short grace period:
// the caller behind it should still be waiting for a held write.
func pending(t *testing.T, what string, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s returned (%v) while a flush was still writing", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestFlushWritesRunWithoutTheLock holds a flush's first device write
// and checks what runs meanwhile (DESIGN.md §11.3). During a partial
// flush an append stages and reads back, while a sync and a rewrite of
// a staged block wait for the flush to land. During a seal a read of
// the sealing segment is served from its image in memory, and an append
// opens the next segment.
func TestFlushWritesRunWithoutTheLock(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(d, Config{SegBlocks: 8, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	g := &gatedDevice{Device: d}
	l, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	blk := func(b byte) []byte { return bytes.Repeat([]byte{b}, BlockSize) }
	next := byte(1)
	appendOne := func() (BlockAddr, error) {
		next++
		return l.Append(KindData, 7, uint64(next), types.Timestamp(next), blk(next))
	}
	a0, err := appendOne()
	if err != nil {
		t.Fatal(err)
	}

	// Partial flush.
	g.arm()
	flushed := make(chan error, 1)
	go func() { flushed <- l.Sync() }()
	<-g.held
	var a1 BlockAddr
	within(t, "append during a partial flush", func() (err error) { a1, err = appendOne(); return err })
	got := make([]byte, BlockSize)
	within(t, "read of a staged block", func() error { return l.Read(a1, got) })
	if !bytes.Equal(got, blk(next)) {
		t.Fatal("staged block read back wrong")
	}
	synced, rewrote := make(chan error, 1), make(chan error, 1)
	go func() { synced <- l.Sync() }()
	go func() {
		ok, err := l.RewriteRange(a0, 0, []byte{0xAB})
		if err == nil && !ok {
			t.Error("rewrite of a staged block refused")
		}
		rewrote <- err
	}()
	pending(t, "Sync", synced)
	pending(t, "RewriteRange", rewrote)
	close(g.release)
	for _, ch := range []chan error{flushed, synced, rewrote} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	// Seal: fill the segment but for one slot, then hold the write of
	// the append that fills it and seals the segment.
	seg := l.SegOf(a0)
	for {
		l.mu.Lock()
		full := l.used >= l.PayloadBlocks()-1
		l.mu.Unlock()
		if full {
			break
		}
		if _, err := appendOne(); err != nil {
			t.Fatal(err)
		}
	}
	g.arm()
	sealing := make(chan error, 1)
	go func() { _, err := appendOne(); sealing <- err }()
	<-g.held
	reads, _ := l.ReadStats()
	within(t, "read of the sealing segment", func() error { return l.Read(a1, got) })
	if !bytes.Equal(got, blk(3)) {
		t.Fatal("block of the sealing segment read back wrong")
	}
	if now, _ := l.ReadStats(); now != reads {
		t.Fatalf("read of the sealing segment went to the device (%d reads, want %d)", now, reads)
	}
	var a2 BlockAddr
	within(t, "append during a seal", func() (err error) { a2, err = appendOne(); return err })
	if l.SegOf(a2) == seg {
		t.Fatalf("append during the seal landed in the sealing segment %d", seg)
	}
	close(g.release)
	if err := <-sealing; err != nil {
		t.Fatal(err)
	}
	if err := l.Read(a1, got); err != nil || !bytes.Equal(got, blk(3)) {
		t.Fatalf("read of the sealed segment after its writes landed: %v", err)
	}
	if now, _ := l.ReadStats(); now != reads+1 {
		t.Fatalf("device reads %d, want %d", now, reads+1)
	}
}

// TestSealInstallsWhatItWrote holds a seal's device write while appends
// open the next segment and stage blocks in it, which reuses the staged
// entries the seal encoded its summary from. What the seal leaves in
// memory must be the summary it wrote, decoded from that block, so once
// it lands, on the same Log: a verified read of every sealed block
// returns its bytes, ReadSummary of the sealed segment equals a reopened
// Log's, and rot written behind the seal is still caught (repaired from
// the flush buffer, which holds the sealed image). The next segment's
// blocks differ from the sealed ones in kind, object, key, time and Len,
// so a summary taken from the staged entries fails each check.
func TestSealInstallsWhatItWrote(t *testing.T) {
	d := disk.New(disk.SmallDisk(8<<20), nil)
	if err := Format(d, Config{SegBlocks: 8, CheckpointBlocks: 4}); err != nil {
		t.Fatal(err)
	}
	g := &gatedDevice{Device: d}
	l := reopen(t, g)
	payload := l.PayloadBlocks()
	var sealed []BlockAddr
	var want [][]byte
	appendSealed := func(i int) error {
		data := bytes.Repeat([]byte{byte(0x10 + i)}, 100+500*i)
		a, err := l.Append(KindData, 7, uint64(i), types.Timestamp(i+1), data)
		sealed, want = append(sealed, a), append(want, append(data, make([]byte, BlockSize-len(data))...))
		return err
	}
	for i := 0; i < payload-1; i++ {
		if err := appendSealed(i); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.SegOf(sealed[0])
	g.arm()
	sealing := make(chan error, 1)
	go func() { sealing <- appendSealed(payload - 1) }()
	<-g.held
	within(t, "appends into the next segment during the seal", func() error {
		for i := 0; i < 3; i++ {
			a, err := l.Append(KindJournal, 9, uint64(100+i), types.Timestamp(1000+i), bytes.Repeat([]byte{0xEE}, BlockSize))
			if err != nil {
				return err
			}
			if l.SegOf(a) == seg {
				return fmt.Errorf("append landed in the sealing segment %d", seg)
			}
		}
		return nil
	})
	close(g.release)
	if err := <-sealing; err != nil {
		t.Fatal(err)
	}
	if l.SegOf(sealed[payload-1]) != seg || l.CurrentSegment() == seg {
		t.Fatalf("the last append did not seal segment %d", seg)
	}

	buf := make([]byte, BlockSize)
	for i, a := range sealed {
		if err := l.Read(a, buf); err != nil || !bytes.Equal(buf, want[i]) {
			t.Fatalf("verified read of sealed block %d: %v, or other bytes than appended", i, err)
		}
	}
	held, ok, err := l.ReadSummary(seg)
	if err != nil || !ok {
		t.Fatalf("summary of the sealed segment: ok=%v %v", ok, err)
	}
	onDisk, ok, err := reopen(t, d).ReadSummary(seg)
	if err != nil || !ok {
		t.Fatalf("summary of the sealed segment, reopened: ok=%v %v", ok, err)
	}
	if !reflect.DeepEqual(held, onDisk) {
		t.Fatalf("the seal left summary %+v in memory, but wrote %+v", held, onDisk)
	}

	rotBlock(d, sealed[2])
	if err := l.Read(sealed[2], buf); err != nil || !bytes.Equal(buf, want[2]) {
		t.Fatalf("read of a block rotted behind the seal: %v, or the rotted bytes", err)
	}
	if det, rep, quar := l.IntegrityStats(); det != 0 || rep != 1 || quar != 0 {
		t.Fatalf("rot behind the seal: det=%d rep=%d quar=%d, want one repair", det, rep, quar)
	}
}
