package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"s4/internal/audit"
	"s4/internal/harness/israce"
	"s4/internal/seglog"
	"s4/internal/types"
)

// auditRandomOp audits one request with arguments of random size, so
// consecutive records differ in length.
func auditRandomOp(e *testEnv, rnd *rand.Rand) {
	var err error
	if rnd.Intn(8) == 0 {
		err = types.ErrPerm
	}
	e.d.auditOp(alice, types.Op(1+rnd.Intn(8)), types.ObjectID(rnd.Intn(1<<20)),
		uint64(rnd.Int63n(1<<40)), uint64(rnd.Intn(1<<16)), strings.Repeat("a", rnd.Intn(300)), err)
	if rnd.Intn(4) == 0 {
		e.tick()
	}
}

// TestAuditBlocksAreFull: §5.1.4's cheap auditing rests on many records
// sharing a block. Every audit block must therefore be full — no room
// for the record that follows it — except the last one a checkpoint
// flushes; when the buffer wrote every record once a block's worth had
// accumulated, each flush wrote a full block and a second one holding
// the single record that overflowed. That holds too for the records that
// pile up while the log is out of space: none is lost, and once space
// returns they leave in full blocks. A block's bytes are exactly what
// audit.EncodeBlock makes of its records.
func TestAuditBlocksAreFull(t *testing.T) {
	e := newTestDrive(t)
	rnd := rand.New(rand.NewSource(1))
	byCheckpoint := map[int]bool{}
	checkpoint := func() {
		before := len(e.d.auditBlocks)
		if err := e.d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := len(e.d.auditBlocks); n > before {
			byCheckpoint[n-1] = true
		}
	}
	ops := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			auditRandomOp(e, rnd)
			ops++
			if ops%700 == 0 {
				checkpoint()
			}
		}
	}
	run(1500)

	// Out of space: every free segment taken, so the open one fills and
	// audit blocks stop reaching the log.
	var taken []int64
	for seg := int64(0); seg < e.d.log.NumSegments(); seg++ {
		if e.d.log.IsFree(seg) {
			e.d.log.MarkAllocated(seg)
			taken = append(taken, seg)
		}
	}
	for range 400 {
		auditRandomOp(e, rnd)
	}
	stuck := len(e.d.auditBlocks)
	for range 100 {
		auditRandomOp(e, rnd)
	}
	if len(e.d.auditBlocks) != stuck {
		t.Fatal("audit blocks still reach a log with no free segment")
	}
	if err := e.d.Checkpoint(); !errors.Is(err, types.ErrNoSpace) {
		t.Fatalf("checkpoint on a full log: %v, want ErrNoSpace", err)
	}
	for _, seg := range taken {
		if err := e.d.log.FreeSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	run(1500)
	checkpoint()

	recs, err := e.d.AuditRead(admin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != e.d.auditSeq-1 { // less the AuditRead's own record, still buffered
		t.Fatalf("%d audited requests, %d records read back", e.d.auditSeq-1, len(recs))
	}
	for i := range recs {
		if recs[i].Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: a record was lost or reordered", i, recs[i].Seq)
		}
	}

	blocks := e.d.auditBlocks
	buf := make([]byte, seglog.BlockSize)
	var decoded [][]audit.Record
	var used []int
	for _, ref := range blocks {
		if err := e.d.log.Read(ref.addr, buf); err != nil {
			t.Fatal(err)
		}
		rs, err := audit.DecodeBlock(buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := audit.EncodeBlock(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:len(want)], want) || !bytes.Equal(buf[len(want):], make([]byte, len(buf)-len(want))) {
			t.Fatalf("block at %v is not audit.EncodeBlock of its %d records", ref.addr, len(rs))
		}
		decoded, used = append(decoded, rs), append(used, len(want))
	}
	records := 0
	for i, rs := range decoded {
		records += len(rs)
		if i+1 == len(decoded) || byCheckpoint[i] {
			continue
		}
		if next := decoded[i+1][0].EncodedSize(); used[i]+next <= seglog.BlockSize {
			t.Errorf("audit block %d holds %d records in %d bytes; the next record (%d bytes) would have fit",
				i, len(rs), used[i], next)
		}
	}
	t.Logf("%d records in %d audit blocks (%.1f per block; %d flushed by checkpoints)",
		records, len(decoded), float64(records)/float64(len(decoded)), len(byCheckpoint))
}

// TestAuditOpAllocs is the count gate on what auditing costs a request:
// the record is encoded once, into the block being filled, from a
// capture built in a buffer the drive reuses, so a steady-state audited
// op allocates nothing of its own — what is left is the block list
// growing and the segment log's per-seal bookkeeping, a few bytes per op.
// Before, every record allocated its 256-byte capture and was encoded
// four times, three of them into fresh slices.
func TestAuditOpAllocs(t *testing.T) {
	e := newTestDrive(t)
	i := 0
	op := func() {
		e.d.auditOp(alice, types.OpWrite, 7, uint64(i)*types.BlockSize, types.BlockSize, "", nil)
		i++
	}
	for range 1000 {
		op()
	}
	const runs = 5000
	allocs := testing.AllocsPerRun(runs, op)
	// The memory device materializes its store as the log first writes
	// it; that is the device's cost, not the request's.
	dev := e.dev.AllocatedBytes()
	perOp := allocBytesPer(runs, func(int) { op() }) - uint64(e.dev.AllocatedBytes()-dev)/runs
	t.Logf("an audited op: %.0f allocations, %d B allocated besides the device's store (%d records per audit block)",
		allocs, perOp, int64(i)/int64(len(e.d.auditBlocks)))
	if allocs >= 1 {
		t.Errorf("an audited op allocates %.0f times, want none", allocs)
	}
	if israce.Enabled {
		t.Log("race detector on: byte threshold not checked")
	} else if perOp > 64 {
		t.Errorf("an audited op allocates %d B, want at most 64", perOp)
	}
}
